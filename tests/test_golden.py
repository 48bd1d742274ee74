"""Golden digests: every default dataset and manifest, byte for byte.

All nine experiments run at their defaults, once as CSV and once as JSON, in
one child interpreter with BLAS pinned to one thread (datasets are
byte-identical only for a fixed numpy/BLAS build and thread count). Each
dataset's sha256 and each manifest's sha256 with ``timestamp`` removed are
compared with the table below, recorded with numpy 2.4.6 on scipy-openblas
0.3.31. A change that alters a digest on purpose updates the table and says
why.
"""

import hashlib
import json
import os
import subprocess
import sys

from latticeccr.experiments import EXPERIMENTS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD = """
import sys
from latticeccr.cli import main
out = sys.argv[1]
for exp in sys.argv[2:]:
    assert main([exp, "--out", out]) == 0, exp
    assert main([exp, "--out", out, "--set", "output.format=json", "--set", f"output.path={exp}.json"]) == 0, exp
"""

GOLDEN = {
    "ccr-check.csv": "fae1bf88b81a531b32074256d57eec1abba4f891e7ef0ad1e0270eef748c89af",
    "ccr-check.json": "8e23963571ef52905024838a4c2eebb5dda801b41a14ec63ca28f1c1a4548360",
    "ccr-check_manifest.json": "71ac70ab7f8e0057715617b33db6ca81f751a62be3e0c6e57bc9636b9ed7e058",
    # block propagation with a real GEMM: the propagated datasets move in the 12th
    # printed digit, boundary_max in the 16th (dynamics, fig4, fig5)
    "dynamics.csv": "038dbb2fea5c785e1af3aa5d70edfa97636ba807fbeb7bbb1ed086fd3934bb56",
    "dynamics.json": "a58097ae539109a75e8521fa87a56231f87fdbe16874214b82e0f5fc9da7d41c",
    # the CCR model follows from the Hamiltonian: no "model" in config or derived
    "dynamics_manifest.json": "79f3e2cd89b3fcdb349391783f29c1489f547d7c296b87eda711655cb791c314",
    "fig1.csv": "ec70fbd63b622037b58f5e9a0712161447ce10aed16993350da9c5e1fcfcb793",
    "fig1.json": "8974598f6268b5892878f1ccfae020bbc31eca9ed7d573e15c5329d841ddcd89",
    "fig1_manifest.json": "ae54cbc49370ac3e81b026c97bc08fd5ae31c9a0ae59a915348b29b0eb1fb3b2",
    "fig2.csv": "8424fbed39649c4a65d5fea5b565bf3eae008e5c6cbf0f0258a62382b0d061a6",
    "fig2.json": "f0bffb85eafd04445c6f4b411f6b2322e022b9cdb5c02551ab71f9298e95b1ef",
    "fig2_manifest.json": "271f2429741c56d5a9732dec9f64e641fa814f0d4edd73353e7767ce5344b5a9",
    "fig3.csv": "3ce8db4541ec2ba674b99dec2b7a6a91219fa6a3df22f16a4b4211c9810bfc08",
    "fig3.json": "0be17bca72e3af455a3d56b988094826eb1183eacfb521fc84202a7e6dfcb3a9",
    "fig3_manifest.json": "218179ad3d1291f4434b1fd33ca583b4cea119031e78ec9b1110fcb66573ec78",
    "fig4.csv": "63395f81cca59790e686d9360ae8d242dd1257f496a91ccf0e0f1c774748bffc",
    "fig4.json": "957380d7b7cdfe6478049be3f5eadbfa85e14df9f55e00636e5a8aef2906e474",
    "fig4_manifest.json": "3791c11626773af41abfefd5334f5ec3e5d89c071f1983359dab3e7b9b382456",
    "fig5.csv": "63a99462e84521dc8b7fac2ee493c1ea1b7baab399828405f90107f781e9d789",
    "fig5.json": "7f8ab28993f3a1ad6a99d5cf3d234601dce37a97059f494205cbc37bf015c01d",
    "fig5_manifest.json": "5938d39226283c547281c172fafa49f387db128881df2f251d13649cdb9b72cf",
    "spectrum.csv": "6bea02d0fe9a0cb82fc7949e4ae36640dec42502c353c0b2a82eac8d67689302",
    "spectrum.json": "75d51eb9a26999bddfbe0feec7044b01b0a4e43e19fd7b556d16322dc7b44c0d",
    "spectrum_manifest.json": "10806db27881b10b88407bb23daf6ae037959c2279042119690dde2e9dce0490",
    "sweep.csv": "cc3e468f08e4dc4f950f8cf121e3a2e6d2226a326ea7a61c48031e2d92f7c5e3",
    "sweep.json": "658db782cf581fb772cb1768f95cd68bb7d0701c7b7bfbb2d44a9ed78f650500",
    "sweep_manifest.json": "32dc1814c50ee19daaedbdd7e692fcf4126b36b419009bbf92bb92a0b32b0968",
}


def _digests(out_dir):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        if name.endswith("_manifest.json"):
            manifest = json.loads(data)
            manifest.pop("timestamp")
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii")
        found[name] = hashlib.sha256(data).hexdigest()
    return found


def test_default_datasets_match_golden_digests(tmp_path):
    env = {**os.environ, **PIN, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), *EXPERIMENTS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    found = _digests(tmp_path)
    changed = {name: digest for name, digest in found.items() if GOLDEN.get(name) != digest}
    missing = sorted(set(GOLDEN) - set(found))
    assert not changed and not missing, f"changed: {json.dumps(changed, indent=1)}; missing: {missing}"
