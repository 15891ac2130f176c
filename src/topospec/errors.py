"""Exception types shared across the pipeline, and the value-type rule of
the config sections."""

import math
import numbers


class TopospecError(Exception):
    """Base class for all pipeline errors."""


class IntegrationDivergedError(TopospecError):
    """State became non-finite during integration (in a Lyapunov run, also the
    tangent or its norm); carries the step index."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"integration diverged (non-finite state) at step {step}")


class DegeneratePerturbationError(TopospecError):
    """Tangent vector collapsed to zero norm during Lyapunov estimation."""


class InsufficientDataError(TopospecError):
    """Input series too short; message names the required minimum length."""


class ZeroVarianceError(TopospecError):
    """A delay coordinate has zero variance, so it cannot be rescaled to unit variance."""


class DegenerateGeometryError(TopospecError):
    """Point cloud is rank-deficient where planar structure is required."""


class DegenerateBandwidthError(TopospecError):
    """Kernel bandwidth is zero (all points identical)."""


class SelectionInfeasibleError(TopospecError):
    """Candidate filtering removed every point; suggests threshold relaxation."""


class AliasingConfigError(TopospecError):
    """Time grid violates the Nyquist condition; message names the minimal scaling."""


class CompileConfigError(TopospecError):
    """Requested evolution cannot be compiled within the step budget."""


class ResourceLimitError(TopospecError):
    """Qubit count exceeds the dense-simulation budget."""


class UndefinedEntropyError(TopospecError):
    """Spectral entropy is undefined (zero total power)."""


class ConfigError(TopospecError):
    """Run configuration is malformed (unknown key, bad value)."""


def typed(val, kind: str) -> bool:
    """Whether a config value has its field annotation ``kind``: a bool, text,
    a finite number that is not a bool (an integral one for int), a tuple of
    finite numbers of the annotated length, or None for "T | None"."""
    if kind.endswith(" | None"):
        return val is None or typed(val, kind.removesuffix(" | None"))
    if kind.startswith("tuple["):
        n = kind.count(",") + 1
        return isinstance(val, tuple) and len(val) == n and all(typed(v, "float") for v in val)
    if kind in ("bool", "str"):
        return isinstance(val, bool if kind == "bool" else str)
    if isinstance(val, bool) or not isinstance(val, numbers.Real) or not math.isfinite(val):
        return False
    return kind == "float" or isinstance(val, numbers.Integral)
