"""Frozen, slotted value classes, without the ``dataclasses`` module.

``@value`` gives a class of annotated fields a slot each and the methods of
``@dataclass(frozen=True, slots=True)``: eq and hash over the tuple of fields
(eq only within one class), repr ``Name(f=..., ...)``, AttributeError on
assignment, copy and pickle by the init fields.  A derived ``x: T = field()``
is left out of eq, hash and repr; with ``init=False`` it starts as None.

Why not ``dataclasses``: each CLI command is a fresh process.  Importing it
(with ``inspect``, ``ast``, ``dis`` and ``tokenize``) took 9-13 ms of CPU,
and each of the 21 classes 0.6-1.1 ms (six ``exec`` calls, a class rebuilt)
against 0.16-0.26 ms for the one ``exec`` here (2-core x86-64 VM, Python 3.11).
"""

_MISSING = object()


class field:
    def __init__(self, init=True):
        self.init = init


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def value(cls):
    """cls rebuilt with a slot per annotated field and generated methods."""
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    fields = [(name, ns.pop(name, _MISSING)) for name in cls.__annotations__]
    ns.update(__slots__=tuple(name for name, _ in fields), __qualname__=cls.__qualname__,
              __setattr__=_frozen, __delattr__=_frozen)
    new = type(cls.__name__, cls.__bases__, ns)
    scope, params, init, body = {}, [], [], []
    for name, default in fields:
        scope[f"_set_{name}"], scope[f"_default_{name}"] = new.__dict__[name].__set__, default
        derived = isinstance(default, field)
        if not derived or default.init:
            init.append(name)
            params.append(name if derived or default is _MISSING else f"{name}=_default_{name}")
        body.append(f"    _set_{name}(self, {name if name in init else None})")
    if hasattr(new, "__post_init__"):
        body.append("    self.__post_init__()")
    compared = [name for name, default in fields if not isinstance(default, field)]
    mine, theirs, args = ("(" + "".join(f"{obj}.{name}, " for name in names) + ")"
                          for obj, names in (("self", compared), ("other", compared), ("self", init)))
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in compared)
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body) + f"""
def __eq__(self, other):
    return {mine} == {theirs} if other.__class__ is self.__class__ else NotImplemented
def __hash__(self):
    return hash({mine})
def __repr__(self):
    return self.__class__.__qualname__ + f"({shown})"
def __reduce__(self):
    return self.__class__, {args}
""", scope)
    for method in ("__init__", "__eq__", "__hash__", "__repr__", "__reduce__"):
        setattr(new, method, scope[method])
    return new
