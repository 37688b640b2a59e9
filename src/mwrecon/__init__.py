"""Scan-specific parallel MRI reconstruction in k-space.

Reconstructs uniformly undersampled multi-coil acquisitions with linear
kernel interpolation (GRAPPA), scan-specific networks (RAKI, rRAKI), and
their multi-weight variants (MW-RAKI, MW-rRAKI) that train on a bank of
high-pass weighted copies of the measurement.
"""

from .filters import WeightFilter, deweight, remove_filter
from .grappa import GrappaKernel, KernelGeometry, calibrate, interpolate
from .kspace import (
    KSpaceFormatError,
    MultiCoilKSpace,
    SamplingPattern,
    apply_pattern,
    extract_acs,
    load_kspace,
    load_pattern,
    make_uniform_pattern,
    save_kspace,
    save_pattern,
)
from .metrics import MetricReport, evaluate, psnr, rmse, ssim
from .network import (
    LayerSpec,
    NetworkArch,
    OptimizerConfig,
    ScanNetwork,
    TrainingDivergedError,
    TrainingSet,
    forward,
    init_network,
    train,
)
from .phantom import CoilMaps, make_coil_maps, shepp_logan, simulate_kspace
from .pipelines import (
    METHODS,
    MultiWeightConfig,
    ReconConfig,
    ReconResult,
    build_training_pairs,
    default_arch,
    make_multiweight_config,
    reconstruct,
    reconstruct_image,
)

__version__ = "0.1.0"
