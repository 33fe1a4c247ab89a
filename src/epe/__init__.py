"""Entanglement-purity-energy toolkit for two qubits and two-mode Gaussian states."""

__version__ = "0.17.0"

from . import errors, gaussian, jc, qubit, sampling  # noqa: E402,F401

__all__ = ["errors", "gaussian", "jc", "qubit", "sampling", "__version__"]
