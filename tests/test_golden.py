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
    "dynamics.csv": "76342040cfefdb2bbef7d07e0ddcab07d567c9fd46051075b1110388da6657a9",
    "dynamics.json": "b613773bf0067d7ffbafd4f72bbfb30c316c508aa91269bddcdab11696edfd3f",
    # the CCR model follows from the Hamiltonian: no "model" in config or derived
    "dynamics_manifest.json": "390c3b0028c0a513aae183dd0eb9e1507ae458ef095cb17c275fc081d606f723",
    "fig1.csv": "ec70fbd63b622037b58f5e9a0712161447ce10aed16993350da9c5e1fcfcb793",
    "fig1.json": "8974598f6268b5892878f1ccfae020bbc31eca9ed7d573e15c5329d841ddcd89",
    "fig1_manifest.json": "ae54cbc49370ac3e81b026c97bc08fd5ae31c9a0ae59a915348b29b0eb1fb3b2",
    "fig2.csv": "8424fbed39649c4a65d5fea5b565bf3eae008e5c6cbf0f0258a62382b0d061a6",
    "fig2.json": "f0bffb85eafd04445c6f4b411f6b2322e022b9cdb5c02551ab71f9298e95b1ef",
    "fig2_manifest.json": "271f2429741c56d5a9732dec9f64e641fa814f0d4edd73353e7767ce5344b5a9",
    "fig3.csv": "3ce8db4541ec2ba674b99dec2b7a6a91219fa6a3df22f16a4b4211c9810bfc08",
    "fig3.json": "0be17bca72e3af455a3d56b988094826eb1183eacfb521fc84202a7e6dfcb3a9",
    "fig3_manifest.json": "218179ad3d1291f4434b1fd33ca583b4cea119031e78ec9b1110fcb66573ec78",
    "fig4.csv": "db61407b567de47532f5d70181a9a8801db36feb3c2ad36fa497ad3009edeac2",
    "fig4.json": "888c1f2ee107dff65d814dcb579356def49ded7b8fab51e5a5cad62a60794010",
    "fig4_manifest.json": "aec0364bf987b59df5a107f44870cef162fff40c780939195cd6ed8861cbb46b",
    "fig5.csv": "49f4444338f327aa5e2cac4fe8bdacda79a88d03bdff1f88d3519c7fc927e720",
    "fig5.json": "7449fc57d7c502f883be40cfed0cbec3d40f90d2c81dacbdca2a7b4e0f869f18",
    "fig5_manifest.json": "a7f9482ab333e5ed74673c708e82616ea4f3dfe6535f6bdd1df27dc6f15dcf05",
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
