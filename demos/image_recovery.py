"""Image recovery from Hadamard-sketch magnitude measurements.

Builds a synthetic grayscale test image, measures it with k = 3 blocks of
the fast Walsh-Hadamard sketch (matrix-free, O(l log l) per product),
recovers it with spectral initialization plus the Polyak method, and prints
recovery statistics.  The same pipeline handles PGM (P5) and PPM (P6) files
from disk.

Run:  python demos/image_recovery.py
"""

import os
import tempfile

import numpy as np

from robustpr import harness, netpbm

work = tempfile.mkdtemp(prefix="robustpr_image_")
src = os.path.join(work, "original.pgm")
dst = os.path.join(work, "recovered.pgm")

# a 64x64 radial gradient with a bright square
yy, xx = np.mgrid[0:64, 0:64]
img = (255 * np.hypot(xx - 32, yy - 32) / 45.0).clip(0, 255)
img[12:24, 40:56] = 240
netpbm.write_image(src, img.astype(np.uint8))

cfg = harness.ExperimentConfig(command="image", input=src, output=dst, k=3, seed=7)
summary = harness.run_image_command(cfg)

print(f"\noriginal   {src}")
print(f"recovered  {dst}")
print(f"signal dimension {summary['pad_len']} (64*64 = 4096 samples, no padding"
      f" needed), measurements m = {3 * summary['pad_len']}")
print(f"iterations {summary['iterations']}, status {summary['status']}")
# each stage's seconds next to its products (one forward and one adjoint
# product per operator application or iterate)
print(f"init:  init_s={summary['init_s']:.4f} init_matvecs={summary['init_matvecs']}"
      f" init_iters={summary['init_iters']}")
print(f"solve: solve_s={summary['solve_s']:.4f} solve_matvecs={summary['solve_matvecs']}"
      f" iterations={summary['iterations']}")
print(f"relative distance to the signal {summary['rel_dist']:.2e}")
print(f"exact pixels after rounding     {summary['exact_pixel_fraction']:.2%}")

# equivalent command line:
#   robustpr image input=original.pgm output=recovered.pgm k=3 seed=7
