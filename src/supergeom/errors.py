"""Exception types shared across the package."""


class KernelError(Exception):
    """Base class for all errors raised by supergeom operations."""


class ContextMismatch(KernelError):
    """Operands built over different generator contexts."""


class ParityError(KernelError):
    """A value violates a parity or homogeneity requirement."""


class NotInvertible(KernelError):
    """Matrix or scalar has no inverse over the ring."""


class NeitherBlockInvertible(NotInvertible):
    """Berezinian needs at least one invertible diagonal block."""


class NonConstantBody(KernelError):
    """An operation needs constant-body entries and found a variable one."""


class PointNotOnVariety(KernelError):
    """The marked point does not satisfy the defining ideal."""


class ReservedGeneratorCollision(KernelError):
    """User data depends on the odd generators reserved for dual parameters."""


class LimitExceeded(KernelError):
    """An input goes past one of the documented size caps of the kernel."""


class ScriptError(KernelError):
    """Script or expression error, carrying the column it was found at, if
    any; run_script adds the line."""

    def __init__(self, message, col=None):
        if col is not None:
            message = f"column {col}: {message}"
        super().__init__(message)
        self.col = col
