"""Frozen, slotted value classes, without the ``dataclasses`` module.

``@value`` gives a class of annotated fields a slot each and the methods of
``@dataclass(frozen=True, slots=True)``: eq and hash over the tuple of fields
(eq only within one class) unless the class defines its own, repr ``Name(f=...)``,
AttributeError on assignment, copy and pickle by the init fields.  A derived
``x: T = field()`` is left out of eq, hash and repr; with ``init=False`` it starts as None.

Why not ``dataclasses``: each CLI command is a fresh process.  Importing it
(with ``inspect``, ``ast``, ``dis`` and ``tokenize``) took 9-13 ms of CPU,
and each value class 0.6-1.1 ms (six ``exec`` calls, a class rebuilt)
against 0.13-0.25 ms here (2-core x86-64 VM, Python 3.11).  One ``exec`` makes
the hot ``__init__``, ``__eq__`` and ``__hash__`` (shared closures ran 20-30%
slower per call); repr and pickle are two shared functions reading the class's
field tuples, 1.5 ms a process less than generating them per class.
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
              __setattr__=_frozen, __delattr__=_frozen, __repr__=_repr, __reduce__=_reduce)
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
    new._shown = tuple(name for name, default in fields if not isinstance(default, field))
    new._init_args = tuple(init)
    mine, theirs = ["(" + "".join(f"{obj}.{name}, " for name in new._shown) + ")"
                    for obj in ("self", "other")]
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body) + f"""
def __eq__(self, other):
    return {mine} == {theirs} if other.__class__ is self.__class__ else NotImplemented
def __hash__(self):
    return hash({mine})
""", scope)
    for method in ("__init__", "__eq__", "__hash__"):
        setattr(new, method, ns.get(method) or scope[method])
    return new


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
    return f"{self.__class__.__qualname__}({shown})"


def _reduce(self):
    return self.__class__, tuple(getattr(self, name) for name in self._init_args)
