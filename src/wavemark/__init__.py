"""Blind image watermarking in the LL3 wavelet subband.

Embeds an XOR-encrypted binary mark into the parities of quantized LL3
coefficients of the Y channel (JPEG-YCbCr, 3-level CDF 9/7 DWT), extracts
it with a saved key, and benchmarks robustness under wavelet-compression
and cropping attacks.
"""

from .attacks import CropRect, crop, wavelet_compress
from .colorspace import YCbCrImage, jpeg_ycbcr_to_rgb, rgb_to_jpeg_ycbcr
from .errors import CapacityError, DimensionError, FormatError, WavemarkError
from .image_io import (
    BitMatrix,
    PlanarImage,
    quantize,
    read_image,
    read_watermark,
    round_half_away,
    write_image,
    write_watermark,
)
from .metrics import ber, nc, pearson, psnr
from .synth import synthesize_host
from .watermark import (
    DEFAULT_DELTA,
    WatermarkKey,
    embed,
    extract,
    generate_r,
    load_key,
    save_key,
    xor_bits,
)
from .wavelet import (
    DetailBands,
    SubbandPyramid,
    dwt2_forward,
    dwt2_inverse,
    ll_synthesis_atom,
    threshold_details,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "CapacityError",
    "CropRect",
    "DEFAULT_DELTA",
    "DetailBands",
    "DimensionError",
    "FormatError",
    "PlanarImage",
    "SubbandPyramid",
    "WatermarkKey",
    "WavemarkError",
    "YCbCrImage",
    "ber",
    "crop",
    "dwt2_forward",
    "dwt2_inverse",
    "embed",
    "extract",
    "generate_r",
    "jpeg_ycbcr_to_rgb",
    "ll_synthesis_atom",
    "load_key",
    "nc",
    "pearson",
    "psnr",
    "quantize",
    "read_image",
    "read_watermark",
    "rgb_to_jpeg_ycbcr",
    "round_half_away",
    "save_key",
    "synthesize_host",
    "threshold_details",
    "wavelet_compress",
    "write_image",
    "write_watermark",
    "xor_bits",
]
