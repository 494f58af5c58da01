"""Exception hierarchy shared by all synmon modules."""


class SynmonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(SynmonError, ValueError):
    """A numeric argument, such as a length, is out of range."""


# --- regex / DFA ingestion ---

class RegexSyntaxError(SynmonError):
    """Malformed regular expression; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class AlphabetMismatch(SynmonError):
    """Regex uses a symbol outside the declared alphabet."""


class FormatError(SynmonError):
    """DFA document does not match the expected JSON schema."""


class PartialTransitionFunction(SynmonError):
    """A (state, symbol) pair has no transition."""


class UnknownState(SynmonError):
    """A transition, the initial state, or an accepting state references
    an undeclared state."""


# --- monoid core ---

class InvalidMonoid(SynmonError):
    """Multiplication table violates the monoid laws."""


class MonoidTooLarge(SynmonError):
    """Closure exceeded the configured element cap."""


class TooLarge(SynmonError):
    """Requested named monoid exceeds its order cap."""


class NotAnIdeal(SynmonError):
    """Candidate subset is not a two-sided ideal."""


class NotAnAction(SynmonError):
    """Supplied table is not a (unitary) left monoid action."""


class NotDistributive(SynmonError):
    """Action does not distribute over the acted-on monoid's operation."""


# --- period analysis ---

class UnknownSymbol(SynmonError):
    """Word contains a letter outside the alphabet."""


class InvalidPeriod(SynmonError):
    """Supplied period does not divide the maximum period, so the residual
    classes would clash."""


class InternalNoPositiveCycle(SynmonError):
    """Every closed walk has weight zero; unreachable for non-empty gamma
    on a Cayley graph."""


class PeriodTrivialWarning(UserWarning):
    """All requested periods equal one; the decomposition is degenerate."""


# --- decomposition ---

class ScopeError(SynmonError):
    """Operation requires a decomposition over the full alphabet with a
    single period."""


class VerificationFailure(SynmonError):
    """A check of a constructed homomorphism, or of a verdict against its
    exact limit, failed; this would falsify an invariant the code relies on."""


class BlockLengthError(SynmonError):
    """A block word contains a block whose length differs from the period."""


# --- oracles ---

class BudgetExceeded(SynmonError):
    """Brute-force oracle input exceeds its enumeration budget."""
