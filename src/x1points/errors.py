"""Exception types shared across the package, the default cap they report
against, the type check of values read from JSON input files, and `record`,
the frozen class decorator of every result type.

Every error names the contract it violates; the CLI maps them to exit code 2.
`DEFAULT_CAP` lives here, beside `CapExceeded`, so that reading it loads no
layer; `matgroup.DEFAULT_CAP` is the same value.  `record` lives here, in the
module every layer loads, and builds the methods of a frozen dataclass as
closures: no process imports `dataclasses` (nor `inspect`) or compiles code.
"""

import json
from operator import attrgetter

# The (point, generator) pairs a chain may visit, the image elements a kernel
# walk may store, the order of a group whose elements are built, and the
# exact-order vectors a spectrum may look up, unless a cap is given.
DEFAULT_CAP = 2**24

_JSON_NAMES = {bool: "boolean", int: "integer", str: "string", list: "array"}


def json_typed(value, kind: type, where: str):
    """`value` if its type is exactly `kind` (bool, int, str or list), else
    ValueError naming `where`: a JSON 1.5 or true is no integer, "false" no
    boolean, ["borel"] no string and null no array."""
    if type(value) is not kind:
        got = json.dumps(value, default=repr)
        raise ValueError(f"{where} must be a JSON {_JSON_NAMES[kind]}, got {got}")
    return value


class X1PointsError(Exception):
    """Base class for all package errors."""


class ModulusMismatch(X1PointsError):
    """Operands live over different moduli."""


class NotInvertible(X1PointsError):
    """Determinant is not a unit mod n."""


class NonCoprimeModuli(X1PointsError):
    """CRT or Goursat input moduli share a prime factor."""


class CapExceeded(X1PointsError):
    """A computation grew past the configured cap: a stabilizer chain past
    its (point, generator) pairs, a kernel walk past its image elements, an
    element set past its elements, or vector enumeration past its vectors.

    `partial_count` records how many were found before aborting (for an
    element set and for vectors, the true count, |G| read off the chain or
    the vector count, known before any is built).
    """

    def __init__(self, cap: int, partial_count: int, what: str, unit: str):
        super().__init__(f"{what} exceeded cap of {cap} {unit} ({partial_count} found)")
        self.cap = cap
        self.partial_count = partial_count


class StageTooLow(X1PointsError):
    """Level detection attempted below the minimal stage (1 for odd primes, 2 for 2)."""


class HypothesisFailed(X1PointsError):
    """A per-prime full-preimage hypothesis of level composition failed."""

    def __init__(self, prime: int, detail: str = ""):
        msg = f"full-preimage hypothesis failed at prime {prime}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.prime = prime


class OrderMismatch(X1PointsError):
    """A torsion vector does not have the exact order the operation requires."""


class PreconditionFailed(X1PointsError):
    """Numeric precondition of a certificate constructor does not hold."""


class InconsistentProfile(X1PointsError):
    """A declared Galois-image profile is impossible (e.g. Borel at both 17 and 37)."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


_MISSING = object()
_set = object.__setattr__


class field:
    """Options of one record field, as `dataclasses.field` takes them: a field
    with init=False is set in `__post_init__` with `object.__setattr__`; one
    with compare=False is left out of `==` and `hash`, one with repr=False out
    of the repr."""

    def __init__(self, *, default=_MISSING, init=True, repr=True, compare=True):
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


def fields(obj) -> tuple[str, ...]:
    """The field names of a record class or instance in declaration order;
    empty for anything that is no record."""
    return getattr(obj, "__record_fields__", ())


def _bind(cls, names, defaults, args, kwargs) -> dict:
    """The field values of `cls(*args, **kwargs)`, or a TypeError naming what
    a function with parameters `names` and `defaults` would reject."""
    bound = dict(zip(names, args))
    problems = [f"{len(args)} positional arguments for {len(names)}"] if len(args) > len(names) else []
    problems += [f"unexpected keyword argument {k!r}" for k in kwargs if k not in names]
    problems += [f"multiple values for argument {k!r}" for k in kwargs if k in bound]
    bound.update(kwargs)
    problems += [f"missing argument {k!r}" for k in names if k not in bound and k not in defaults]
    if problems:
        raise TypeError(f"{cls.__qualname__}(): {'; '.join(problems)}")
    return {k: bound[k] if k in bound else defaults[k] for k in names}


def record(cls):
    """`dataclasses.dataclass(frozen=True)` for the fields annotated on `cls`,
    each with its default or a `field(...)` as class attribute: the same
    `__init__` (then `__post_init__`), repr, `==`, `hash` and
    FrozenInstanceError, less each method whose name the body of `cls`
    already defines.  A class that defines `__eq__` alone has `__hash__`
    None, as any Python class."""
    specs = {}
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        specs[name] = spec
        if spec.default is _MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
    names = tuple(name for name, spec in specs.items() if spec.init)
    keys = frozenset(names)
    defaults = {name: specs[name].default for name in names if specs[name].default is not _MISSING}
    post_init = getattr(cls, "__post_init__", None)

    # object.__setattr__ keeps the fields in the instance's inline values (a
    # write to self.__dict__ would build a dict per instance and slow reads);
    # it returns None, so any() makes every call, in C
    def __init__(self, *args, **kwargs):
        given = names
        if kwargs or len(args) != len(names):
            if args or kwargs.keys() != keys:
                kwargs = _bind(cls, names, defaults, args, kwargs)
            given, args = kwargs, kwargs.values()
        any(map(_set.__get__(self), given, args))
        if post_init is not None:
            post_init(self)

    shown = tuple(name for name, spec in specs.items() if spec.repr)

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in shown)})"

    compared = tuple(name for name, spec in specs.items() if spec.compare)
    # attrgetter of one name returns the bare value, not a 1-tuple
    key = attrgetter(*compared) if len(compared) > 1 else lambda obj: tuple(getattr(obj, n) for n in compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__record_fields__ = tuple(specs)
    return cls
