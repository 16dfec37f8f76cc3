"""Bayesian functional principal components analysis by variational message passing."""

from .data import FunctionalDataset, read_dataset_csv, write_dataset_csv
from .orchestrator import FitConfig, VmpState, fit, initialize
from .postprocess import FpcaFit, finalize, sign_align
from .simulate import SimConfig, generate, ise

__version__ = "0.1.0"

__all__ = [
    "FunctionalDataset",
    "read_dataset_csv",
    "write_dataset_csv",
    "FitConfig",
    "VmpState",
    "fit",
    "initialize",
    "FpcaFit",
    "finalize",
    "sign_align",
    "SimConfig",
    "generate",
    "ise",
    "__version__",
]
