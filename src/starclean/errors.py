"""Exception types shared across the package."""


class StarCleanError(Exception):
    """Base class for all package-specific errors."""


class MalformedSpec(StarCleanError):
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
        if id_limit is not None:
            msg = (
                f"ring would have {size} elements, more than the {id_limit} "
                f"that 16-bit element ids can name"
            )
        elif table_bytes is None:
            msg = f"ring would have {size} elements, exceeding the cap of {cap}"
        else:
            msg = (
                f"ring would have {size} elements, whose tables need about {table_bytes} "
                f"bytes to build, more than the {memory} bytes of physical memory"
            )
        super().__init__(msg)
        self.size = size
        self.cap = cap
        self.table_bytes = table_bytes


class ParseError(StarCleanError):
    """Spec text failed to parse; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


class ValidationError(StarCleanError):
    """A parsed spec is well-formed but incompatible with its target."""


class NotAnIdeal(StarCleanError):
    """A subset fails one of the two-sided ideal closure conditions."""


class NotIdempotent(StarCleanError):
    """A corner was requested at an element with e*e != e."""


class NotAProjection(StarCleanError):
    """An involution restriction was requested at a non-self-adjoint idempotent."""


class NotStarInvariant(StarCleanError):
    """An ideal is not closed under the involution; carries a witness element."""

    def __init__(self, message: str, witness: int):
        super().__init__(message)
        self.witness = witness


class AxiomViolation(StarCleanError):
    """A candidate involution breaks one of its three axioms."""

    def __init__(self, axiom: str, witness: tuple, detail: str = ""):
        msg = f"involution axiom {axiom!r} fails on {detail or witness}"
        super().__init__(msg)
        self.axiom = axiom
        self.witness = witness


class IdentityOnNoncommutative(StarCleanError):
    """The identity map is only an involution on commutative rings."""

    def __init__(self, witness: tuple, detail: str = ""):
        super().__init__(
            f"identity involution requires a commutative ring; {detail or witness} do not commute"
        )
        self.witness = witness


class SwapShapeMismatch(StarCleanError):
    """The swap involution needs a product of two copies of the same ring."""


class UnknownProperty(StarCleanError):
    """An unrecognized ring-level property name was requested."""


class IllConditioned(StarCleanError):
    """A numerical rank decision fell inside the ambiguity band."""


class OutputError(StarCleanError):
    """The report could not be written to the requested file."""


class CorpusError(StarCleanError):
    """A corpus file entry failed to parse or validate; carries its index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"corpus entry {index}: {message}")
        self.index = index
