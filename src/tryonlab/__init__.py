"""Numerical laboratory for attention-energy guided diffusion sampling.

The package trains nothing: a fixed toy attention denoiser exposes the
same contract a production try-on diffusion model would (noise prediction
plus cross-attention maps and their VJP), energies over those maps define
where attention should live, and the sampler descends the energy during
generation. Synthetic scenes and a try-on fidelity metric close the loop.
"""

from .denoiser import (
    Condition,
    DenoiserModel,
    LinearGaussianModel,
    ModelError,
    ToyAttentionDenoiser,
    toy_init,
)
from .energy import (
    AttentionLayer,
    EnergyBreakdown,
    EnergyConfig,
    EnergyError,
    LayerEnergy,
    e_total,
)
from .grids import (
    BinaryMask,
    Grid,
    GridError,
    GridFormatError,
    grid_read,
    grid_write,
    mask_read,
    resample_mask,
)
from .rng import RandomStream, gaussian_field
from .sampler import (
    SamplerConfig,
    SamplerError,
    StepEntry,
    TrajectoryRecord,
    ancestral_step,
    cfg_mix,
    csc_correct,
    draw_noise,
    eps_to_score,
    sample,
    sample_points,
)
from .schedule import NoiseSchedule, ScheduleError, make_schedule
from .scenes import (
    BenchSample,
    Rect,
    SceneError,
    SceneSpec,
    affine_flow,
    composite_reference,
    gen_dataset,
    gen_scene,
    random_spec,
    write_dataset,
)
from .vtid import (
    FeatureExtractor,
    SceneImage,
    VtidError,
    VtidReport,
    perceptual_l2,
    pixel_extractor,
    random_feature_extractor,
    scene_read,
    scene_write,
    vtid_score,
    warp_scene,
)

__version__ = "0.1.0"
