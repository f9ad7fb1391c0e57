"""The closed-form preset CSVs and the validate CSV, pinned by SHA-256.

Each closed-form preset runs in-process and its CSV must hash to the value
pinned for the build it was measured on. So must the validate preset at
VALIDATE_REPS replications, which pins the spatial drops and the queue
simulations at their seeds beside the closed forms they are checked
against. The last bit of a closed form depends on that build: numpy's
array power follows its CPU dispatch target, Python's float power is
libm's, and scipy's special functions its own. On any other build the
tests skip and name the difference.

A change that moves a closed form on purpose pins the new digests and
prints the moved tables, before and after, in CHANGES.md.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from cfedge import cli

PRESETS = ("scp-surface-mix", "scp-surface-single", "secp-surface",
           "r-threshold", "energy-sweep")
VALIDATE_REPS = 2000

# build -> preset -> SHA-256 of its CSV
PINNED = {
    ("numpy 2.4.6", "scipy 1.17.1", "glibc 2.36", "dispatch AVX512_SPR"): {
        "scp-surface-mix":
            "c29afaf5fdcd25a9c225f53cc82797a17ebd78d81eb67364c2108968e488bcd2",
        "scp-surface-single":
            "de4f629d2c8e2f54a45a9454217ab5eac581aa3134bda3ae264819203843b7f0",
        "secp-surface":
            "8748c019e248f5f1eaf76085d7a1305fb6d86d5379241ed44be896c2a6e8d46e",
        "r-threshold":
            "0fb9885f7fbb3a384d4bf9df6d1ca904013ed0c6588f52445940867e570b0595",
        "energy-sweep":
            "d6064744828afdb22ab358ee474bfe04c4f5a6d2afde08358eb00faab1b8edda",
        "validate":
            "e5b02bf52419f8ff0ca949454f20c1bfa973788d6a79dd29b5fc312a3eb0b04c",
    },
}


def _build() -> tuple:
    # numpy's SIMD loops run the highest dispatch target the CPU supports
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        targets = []
    return (f"numpy {np.__version__}", f"scipy {scipy.__version__}",
            " ".join(platform.libc_ver()) or "libc unknown",
            f"dispatch {targets[-1] if targets else 'baseline'}")


def _csv_digest(preset: str, reps, out_dir) -> tuple:
    """(build, SHA-256 of the preset's CSV at reps replications); skips on
    a build without pinned digests."""
    build = _build()
    if build not in PINNED:
        pytest.skip(f"digests are pinned for {sorted(PINNED)}, not for "
                    f"{build}")
    spec = cli.ExperimentSpec.from_mapping(
        cli._merge_spec(None, preset, None, reps))
    assert cli.run_experiment(spec, out_dir=str(out_dir)) == cli.EXIT_OK
    data = (out_dir / (spec.label + ".csv")).read_bytes()
    return build, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset", PRESETS)
def test_closed_form_csv_digest(preset, tmp_path):
    build, digest = _csv_digest(preset, None, tmp_path)
    assert digest == PINNED[build][preset]


def test_validate_csv_digest(tmp_path):
    build, digest = _csv_digest("validate", VALIDATE_REPS, tmp_path)
    assert digest == PINNED[build]["validate"]
