"""Exception types shared across the package."""


class StarCleanError(Exception):
    """Base class for all package-specific errors."""


class InputError(StarCleanError):
    """Bad input: the command line exits 2 on any of these."""


class MalformedSpec(InputError):
    """A ring or involution recipe is structurally invalid."""


class SpecTooLarge(StarCleanError):
    """The requested ring would exceed the size cap, have more elements than
    an element id can name (then ``id_limit`` is that number), or need more
    than physical memory for its Cayley tables (then ``table_bytes`` is the
    estimate)."""

    def __init__(
        self,
        size: int,
        cap: int,
        table_bytes: int | None = None,
        memory: int | None = None,
        id_limit: int | None = None,
    ):
        # rings._build counts no further than 2^64 (SIZE_BOUND_CEILING)
        count = f"{size}" if size < 1 << 64 else "2^64 or more"
        if id_limit is not None:
            msg = (
                f"ring would have {count} elements, more than the {id_limit} "
                f"that 16-bit element ids can name"
            )
        elif table_bytes is None:
            msg = f"ring would have {count} elements, exceeding the cap of {cap}"
        else:
            msg = (
                f"ring would have {count} elements, whose tables need about {table_bytes} "
                f"bytes to build, more than the {memory} bytes of physical memory"
            )
        super().__init__(msg)
        self.size = size
        self.cap = cap
        self.table_bytes = table_bytes


class ParseError(InputError):
    """Spec text failed to parse; carries the offending position.

    The message quotes the whole text when it is short, and otherwise only
    the ``QUOTE_CHARS`` characters on each side of the position, with
    ``...`` for each elided end.
    """

    QUOTE_CHARS = 40

    def __init__(self, message: str, text: str, pos: int):
        lo, hi = max(0, pos - self.QUOTE_CHARS), pos + self.QUOTE_CHARS
        if len(text) <= 2 * self.QUOTE_CHARS:
            lo, hi = 0, len(text)
        quoted = f"{'...' if lo else ''}{text[lo:hi]!r}{'...' if hi < len(text) else ''}"
        super().__init__(f"{message} at position {pos} in {quoted}")
        self.text = text
        self.pos = pos


class ValidationError(InputError):
    """A parsed spec is well-formed but incompatible with its target."""


class NotIdempotent(InputError):
    """A corner was requested at an element with e*e != e."""


class NotAProjection(InputError):
    """An involution restriction was requested at a non-self-adjoint idempotent."""


class NotStarInvariant(InputError):
    """An ideal is not closed under the involution; carries a witness element."""

    def __init__(self, message: str, witness: int):
        super().__init__(message)
        self.witness = witness


class AxiomViolation(InputError):
    """A candidate involution breaks one of its three axioms."""

    def __init__(self, axiom: str, witness: tuple, detail: str = ""):
        msg = f"involution axiom {axiom!r} fails on {detail or witness}"
        super().__init__(msg)
        self.axiom = axiom
        self.witness = witness


class IdentityOnNoncommutative(InputError):
    """The identity map is only an involution on commutative rings."""

    def __init__(self, witness: tuple, detail: str = ""):
        super().__init__(
            f"identity involution requires a commutative ring; {detail or witness} do not commute"
        )
        self.witness = witness


class SwapShapeMismatch(InputError):
    """The swap involution needs a product of two copies of the same ring."""


class UnknownProperty(InputError):
    """An unrecognized ring-level property name or suite tag was requested."""


class IllConditioned(StarCleanError):
    """A numerical rank decision fell inside the ambiguity band."""


class OutputError(InputError):
    """The report could not be written to the requested file."""


class CorpusError(InputError):
    """A corpus file entry failed to parse or validate; carries its index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"corpus entry {index}: {message}")
        self.index = index
