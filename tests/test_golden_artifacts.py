"""Golden artifacts: every file a default CLI run writes, by SHA-256.

Each case runs one command in process and hashes every file it writes,
sidecars included.  An intended change of any artifact shows up as an edit
to ``GOLDEN`` below.  The digests were recorded in ``RECORDED_WITH``; another
numpy, scipy or LAPACK build may round differently, so a mismatch names
both environments.
"""

import hashlib
import json
import platform
from importlib import metadata

import pytest

from qdpair import cli

# The environment the digests below were recorded in.
RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
RUNNING = {"python": platform.python_version(),
           **{name: metadata.version(name) for name in ("numpy", "scipy")}}

# The sidecar of every default table: the default configuration and its digest.
DEFAULT_SIDECAR = "cca4089206340d95c2c14f7abf3ab3a4780f77adc0aedb4ba2e5e97f0f710fb4"

# case -> (command line, configuration or None, {file name: SHA-256}).
GOLDEN = {
    "fig3": (
        ["fig3"], None,
        {"fig3.config.json": DEFAULT_SIDECAR,
         "fig3.csv": "762e79eb0e3a73b560380da8368d6cd4349fbdc5ec4f3382793fb97ee1ab54b1"}),
    "fig4b": (
        ["fig4b"], None,
        {"fig4b.config.json": DEFAULT_SIDECAR,
         "fig4b.csv": "fb9cb13d99490aaee6327d0091c1d65b6078cf2c07890325e26f08ac66a1484b"}),
    "fig5-csv": (
        ["fig5"], None,
        {"fig5.config.json": DEFAULT_SIDECAR,
         "fig5.csv": "f0766cd7152a300faec603d70aff7464cfae0dc488ee9407e98d968a3a70c5d1"}),
    "fig5-json": (
        ["fig5", "--format", "json"], None,
        {"fig5.json": "43be58c8fc9bd44c4e867c53d4372affa0ad463ac5704c8fe6d03898d3ab7557"}),
    "entangle-tomography": (
        ["entangle"], {"tomography": {"enabled": True, "bootstrap": 50}},
        {"entangle.json": "f9f64ef6f2ba6861b9742676552b6ec3c0697a23456798f6b9eeb5981ad0a9f2"}),
    "rates": (
        ["rates"], None,
        {"rates.json": "625ffb743ae2f6517e4143c18c284b5043cf0444aadc8cc9b26a89fcc17d21d2"}),
    "rates-seed-5": (
        ["rates", "--seed", "5"], None,
        {"rates.json": "b5f48733ad7b47b16ccc91f08c95f1ad3ad226f8f1ca4de520d06fdc9997db22"}),
    "timetag-synth": (
        ["timetag", "synth"], None,
        {"stream.config.json": "da8f279e9037385aad18b596120f5f19c6e39a69aff51933b820b660de0180c2",
         "stream.qtt": "033c94a050e73f4fa8a93daab06e0aefe3e166c27d90c27a038375f9b32dba6d"}),
    "timetag-analyse-hbt": (
        ["timetag", "analyse"], None,
        {"hbt_histogram.csv": "29e246c14c07b74303d45ae7af7163191f980a2a2d709eb90b34d49b45c9799d",
         "timetag_analysis.json": "cce6a447c0052333c4b16d2b6ed03329d97391c02f9dcb9c7e3a639d67f6db8f"}),
    "timetag-analyse-pairs": (
        ["timetag", "analyse"], {"timetag": {"mode": "pairs"}},
        {"timetag_analysis.json": "d0eefee88592d36e7fbbf9f8e53dbcda1c8ca5c76d93ac247c509a0ae08ddfa1"}),
    "timetag-analyse-laser": (
        ["timetag", "analyse"], {"timetag": {"mode": "laser"}},
        {"timetag_analysis.json": "9c7cc2ac7d15609e583ad1006e641df8d53ae5261aa3ad21fee380bdb61258ca"}),
    "timetag-sweep": (
        ["timetag", "sweep"], None,
        {"timetag_sweep.config.json": DEFAULT_SIDECAR,
         "timetag_sweep.csv": "99b4c66d3f70d10ab6b8cd6e7ce3dab18f23f77efca91f4de715c25e222f5a0c"}),
}


def written_digests(tmp_path, argv, config) -> dict:
    out = tmp_path / "out"
    extra = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        extra = ["--config", str(path)]
    assert cli.main([*argv, *extra, "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("case", GOLDEN)
def test_default_artifacts_are_byte_identical(tmp_path, case):
    argv, config, digests = GOLDEN[case]
    assert written_digests(tmp_path, argv, config) == digests, (
        f"digests recorded with {RECORDED_WITH}, running with {RUNNING}")
