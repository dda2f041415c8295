"""Exception types shared across the package."""


class _Problems(ValueError):
    """Carries the full list of problems, so an invalid object or config is
    reported in one shot instead of one error per attempt."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ValidationError(_Problems):
    """A physical object violates its invariants (non-Hermitian state, negative rate, ...)."""


class ConfigurationError(_Problems):
    """A run configuration is invalid."""


class InconsistentDataError(ValueError):
    """Measured data cannot correspond to any physical state."""


class FitFailureError(RuntimeError):
    """Nonlinear fit did not converge or the data are degenerate."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
