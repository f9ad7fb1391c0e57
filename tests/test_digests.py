"""The closed-form preset CSVs and the validate CSV, pinned by SHA-256.

Each closed-form preset runs in-process and its CSV must hash to the value
pinned for the build it was measured on. So must the validate preset at
VALIDATE_REPS replications, which pins the spatial drops and the queue
simulations at their seeds beside the closed forms they are checked
against. The last bit of a closed form depends on that build: numpy's
array power and special functions follow its CPU dispatch target, and
Python's float power is libm's. No run imports scipy, so its version is
not part of the build. On any other build the tests skip and name the
difference.

A change that moves a closed form on purpose pins the new digests and
prints the moved tables, before and after, in CHANGES.md.
"""

import hashlib
import platform

import numpy as np
import pytest

from cfedge import cli

PRESETS = ("scp-surface-mix", "scp-surface-single", "secp-surface",
           "r-threshold", "energy-sweep")
VALIDATE_REPS = 2000

# build -> preset -> SHA-256 of its CSV
PINNED = {
    ("numpy 2.4.6", "glibc 2.36", "dispatch AVX512_SPR"): {
        "scp-surface-mix":
            "1242b7b2e6c19a963c5b130f14b63b945db488e4b594dad21cc7d71737437b0b",
        "scp-surface-single":
            "11c7312aecfd805a7c7f6abc7f9005e80f830aedc96d4a25d70cca0898760840",
        "secp-surface":
            "1c35220a9a6e7222bf3b49891b41917ad163db37eb994a4d0449b6ed06bcaa26",
        "r-threshold":
            "770232e6a3d6fe55442d55e023e13b01c1e6d11e65748a04b373f08a1cbe50da",
        "energy-sweep":
            "d6064744828afdb22ab358ee474bfe04c4f5a6d2afde08358eb00faab1b8edda",
        "validate":
            "bc06fae6f6904af868da9bd681cde6c17c56aeeec7f598f3f9e9267096b38016",
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
    return (f"numpy {np.__version__}",
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
