"""Exception hierarchy and frozen record base shared by all rmarith modules."""


class RmarithError(Exception):
    """Base class for every error raised by this library."""


class NonPrimitiveForm(RmarithError):
    """The quadratic form has gcd(a, b, c) > 1."""


class SquareDiscriminant(RmarithError):
    """The discriminant is zero or a perfect square (degenerate form)."""


class InvalidDiscriminant(RmarithError):
    """Not a discriminant of a quadratic order (must be 0 or 1 mod 4, non-square)."""


class DiscriminantMismatch(RmarithError):
    """Composition requires both forms to share one discriminant."""


class NonCyclicTwoPart(RmarithError):
    """The 2-Sylow subgroup of the class group is not cyclic."""


class CountExceedsFiniteExpansion(RmarithError):
    """More convergents requested than a finite continued fraction has."""


class NotEventuallyPeriodic(RmarithError):
    """A periodic continued fraction is required (rational input given)."""


class SearchLimitExceeded(RmarithError):
    """Conductor scan exhausted its range without a match."""

    def __init__(self, target: int, limit: int):
        self.target = target
        self.limit = limit
        super().__init__(
            f"no conductor f' in 1..{limit} reaches class number {target}"
        )


class ReducibleCharPoly(RmarithError):
    """Characteristic polynomial factors over Q; eigenvalue is not quadratic."""


class NotPrimitive(RmarithError):
    """Matrix is not primitive (no power is entrywise positive)."""


class BoundTooSmall(RmarithError):
    """No matrix with the requested characteristic polynomial fits the entry bound."""


class OutOfDomain(RmarithError):
    """Argument lies outside the function's domain."""


class Record:
    """Base of the library's frozen value classes.

    The fields are the names annotated in the class body, in order; a class
    attribute of the same name is that field's default. Each subclass gets an
    ``__init__`` with the fields as its parameters, which stores them and
    then runs ``__post_init__`` when the class has one; that may normalise a
    field with ``object.__setattr__``. An instance holds only its fields: it
    cannot be changed, equals only an instance of the same class with equal
    fields, hashes its fields and shows as ``Name(field=value, ...)``. A
    class may define its own ``__eq__``, ``__hash__`` and ``__repr__``.
    It stands in for ``@dataclass(frozen=True)``, whose import and
    per-class set-up cost a CLI command more than its arithmetic.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        params = "".join(f", {f}=_cls.{f}" if f in cls.__dict__ else f", {f}" for f in fields)
        # no field can be named __d: the class body would have mangled it
        body = "".join(f"\n    __d[{f!r}] = {f}" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        namespace = {"_cls": cls}
        exec(f"def __init__(self{params}):\n    __d = self.__dict__{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    @classmethod
    def _trusted(cls, *values):
        """An instance of the fields `values`, all of them in order, that the
        library has just computed: ``__post_init__`` does not check them again."""
        fields = cls.__annotations__
        if len(values) != len(fields):
            raise TypeError(f"{cls.__name__}._trusted() takes {len(fields)} fields, got {len(values)}")
        self = object.__new__(cls)
        self.__dict__.update(zip(fields, values))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        shown = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({shown})"
