"""Exception types shared across the package."""


class KolmolabError(Exception):
    """Base class for all errors raised by kolmolab."""


class DomainError(KolmolabError):
    """A time or state argument lies outside the admissible domain."""


class EvaluationError(KolmolabError):
    """Coefficient or test-function evaluation produced a non-finite value."""

    def __init__(self, message, t=None, x=None):
        if t is not None:
            message = f"{message} at t={t!r}" + (f", x={x!r}" if x is not None else "")
        super().__init__(message)
        self.t = t
        self.x = x


class CertificateUnavailableError(KolmolabError):
    """No Lyapunov certificate could be constructed; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class StiffnessError(KolmolabError):
    """An ODE integration failed to converge; try a smaller span."""


class HorizonError(KolmolabError):
    """A requested burn-in or truncation horizon does not fit the interval."""


class NoEvolutionMeasureError(KolmolabError):
    """The transition family does not decay, so no evolution measure exists."""


class BlowUpError(KolmolabError):
    """A simulated path became non-finite; carries the offending step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConstantFunctionError(KolmolabError):
    """A quotient that requires a non-constant function received a constant."""


class ScenarioError(KolmolabError):
    """A scenario file is syntactically or semantically invalid."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
