"""Exception types shared across the simulator."""


class ShapeError(ValueError):
    """Operand dimensions do not line up."""


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent."""


class UnsupportedConfigError(ConfigError):
    """A configuration that the simulator deliberately does not model."""


class TraceError(ValueError):
    """An access trace references something the memory model does not know."""


class WorkloadValidationError(ValueError):
    """Raised by the workload parser with the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CalibrationValidationError(ConfigError):
    """Raised by the calibration loader with the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
