"""Golden digests: every default dataset and manifest, byte for byte.

All nine experiments run at their defaults, once as CSV and once as JSON, in
one child interpreter with BLAS pinned to one thread (datasets are
byte-identical only for a fixed numpy/BLAS build and thread count). Both runs
of an experiment write ``<exp>_manifest.json``, so the JSON runs write into a
sibling directory, ``json/``, whose files the table keys by it. Each
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
out, json_out = sys.argv[1:3]
for exp in sys.argv[3:]:
    assert main([exp, "--out", out]) == 0, exp
    json_run = ["--set", "output.format=json", "--set", f"output.path={exp}.json"]
    assert main([exp, "--out", json_out, *json_run]) == 0, exp
"""

GOLDEN = {
    "ccr-check.csv": "fae1bf88b81a531b32074256d57eec1abba4f891e7ef0ad1e0270eef748c89af",
    "json/ccr-check.json": "8e23963571ef52905024838a4c2eebb5dda801b41a14ec63ca28f1c1a4548360",
    "json/ccr-check_manifest.json": "71ac70ab7f8e0057715617b33db6ca81f751a62be3e0c6e57bc9636b9ed7e058",
    "ccr-check_manifest.json": "702eab6b46d66365c988d6c71edc3a042baef88fe52ee37bf782a13021782a54",
    # block propagation with a real GEMM: the propagated datasets move in the 12th
    # printed digit, boundary_max in the 16th (dynamics, fig4, fig5)
    # The parity-block eigensolve of reflection-symmetric Hamiltonians (harmonic
    # and constant potentials) moved the entries commented below, at the
    # rounding level; ccr-check, fig4 and the other manifests did not move.
    # dynamics (harmonic default): 93 cells, 86 of them |S| values below 1e-3
    # moving by at most 1.6e-14, 7 <x>/<k> cells by one unit in the 12th
    # digit; boundary_max (1.9e-9) by 5.2e-17.
    # Propagation through the reflection halves (real coefficient GEMM, the parity
    # halves' two GEMMs, <k> from M) then moved 36 s_abs cells (values below 2.1e-3) by at
    # most 1e-14 absolute; boundary_max (1.9e-9) by 6.9e-23.
    "dynamics.csv": "8c2fa90f06851d456725601764ff0e07e678e751f9973e187c3c94c2921774ba",
    "json/dynamics.json": "99b457ffc8c7675ccd8554f0787ea7ea84352bd73878105983da1460a9b0c998",
    # the CCR model follows from the Hamiltonian: no "model" in config or derived
    "json/dynamics_manifest.json": "de87e1ecc87358bbe1e276d0dcbc1b68acb5bfafd54a08781e33a3fdd28b43fb",
    "dynamics_manifest.json": "5d9c29188000f79ccd7086d83ef3095f34f3c2962e570528eb0fb578b059475e",
    # fig1 and sweep: 17 cells each, at most 1.6e-11 relative. The eigenvalues-only
    # solve of harmonic_sweep (eigvalsh on the parity blocks) then moved 2 more
    # e_over_sqrtc cells in each (quadratic n = 9 at ac^(1/4) = 0.4625 and n = 5 at
    # 2.5167) by one unit in the 12th printed digit, at most 3.5e-12 relative.
    # The sweep as one family (kinetic parity blocks built at a = 1 and scaled by 1/a^2)
    # then moved 1 cell in each: quadratic n = 4 at ac^(1/4) = 1.0667, 4.15667577282 ->
    # 4.15667577281 (the value by 8.5e-14 relative; every value by at most 2.1e-13)
    "fig1.csv": "8136d88d6187f6b82dc4b13cf13ddf380964d017b3bffb5840d38051c334e0f7",
    "json/fig1.json": "7d5c4116248108cdafcfcce7763428e5c3b8ee3061a925d12ef31d9b530fb623",
    # fig1 and sweep take every spacing from grid: their config echo has no lattice.a
    "json/fig1_manifest.json": "63d1ba6a3c9e83ceb5b74410b056ab1d0dd7b22f7fbd587d36cff211a9f6745f",
    "fig1_manifest.json": "f7c6c215e5f5454faeede365307149d21d5bbdc32319a1f3ea0be68c0952b63a",
    # fig2: 20 cells; one by one unit in the 12th digit (0.404), 19 values below
    # 1e-2 by at most 4.9e-14 absolute. |S_n| = |v_0 + 2 sum_j (-1)^j v_-j| from the even
    # halves (a sum in another order) then moved 17 of the 123 s_n cells, each by at most
    # 8.9e-16 absolute: 2 at c = 0.1 (8.5e-7 and 3.7e-5) and 15 at c = 0.01 (3.4e-15 to
    # 6.6e-5; the 6 below 1e-12 are rounding noise)
    "fig2.csv": "a546bd0abc73f21c14dfc80c5deead00b483eff21d53a4f2645b965547b4b195",
    "json/fig2.json": "8896214aa45cd3c570e7ce211b5ddee7d3d7ad7b59ad81472c316c0275550efd",
    "json/fig2_manifest.json": "271f2429741c56d5a9732dec9f64e641fa814f0d4edd73353e7767ce5344b5a9",
    "fig2_manifest.json": "40c047e73140a61fe15f156893b6f784d95bc8640d3108e047027e601328b6ad",
    # fig3: 165 cells of harmonic_amp, at most 2.3e-11 relative (2e-12 absolute)
    "fig3.csv": "c1c0b3e79e49dcf57f193d34ab4c909f597bfb50657a86bd69570e1c01851971",
    "json/fig3.json": "c825055a78ebee5ee0689a0488f59401c58dbb0e92ca13077984e2c316132f52",
    "json/fig3_manifest.json": "218179ad3d1291f4434b1fd33ca583b4cea119031e78ec9b1110fcb66573ec78",
    "fig3_manifest.json": "abddb0b5c584f2aff36456af7c9f58113c6f24e96aa8bf79758e8950e41b1dcc",
    # fig4 and fig5 run over CHUNK times, so their second chunk's phases are the first
    # chunk's block times exp(-i E t_s), and the oracle sums by one GEMV per chunk.
    # fig4: 105 cells; 90 s_abs_b0.02 and 12 s_abs_b0.2 values by at most 4.4e-15
    # absolute, 3 x_exact cells by one unit in the 12th printed digit (1e-14)
    # The real coefficient GEMM and <k> from M then moved 209 cells, each by at most
    # 1e-15 absolute: 180 s_abs_b0.02 and 26 s_abs_b0.2 values below 4.3e-4, and 3 x_mean
    # cells of the centred packets (two near-zero values below 3.7e-15, one 3.5e-4 by one
    # unit in the 12th digit).
    # The oracle evolving its modes through _phases (-i ((a F) n) tau, one GEMV of
    # (weights * column) @ block per chunk) then moved 5 of the 252 x_exact cells, 4 by one
    # unit in the 12th printed digit and the t = 0 cell, rounding noise around x0 = 0, from
    # 6.9e-18 to -5.5e-16; the underlying values move by at most 5.3e-15.
    "fig4.csv": "34caca712e59345fa50f1ab98aade7714538310b955f045bc0bfc0d8c35250c6",
    "json/fig4.json": "3a3778ee2a67e14472b76475154da987e3795e56de38df8cb9b9a9a118fc7f42",
    "json/fig4_manifest.json": "3791c11626773af41abfefd5334f5ec3e5d89c071f1983359dab3e7b9b382456",
    "fig4_manifest.json": "de5d2259e54851c6b29c2e3686241b92ca8fae10ad04534a64f4285b510eea97",
    # fig5: 171 cells, at most 1e-10 absolute on <x> values up to 40, one unit
    # in the 12th digit; boundary_max by 1.3e-11 relative
    # the factored phases then moved 15 x_mean cells by one unit in the 12th digit
    # (at most 1e-10 absolute, 4.2e-12 relative)
    "fig5.csv": "a366b12d3e16dffeadc690c4bc04f1e779e6bb656336ed0aab6bcd8842819245",
    "json/fig5.json": "6eefecd8a5b5d9712708745982fce9fbaee474e28a5455613bd53daac29d2d7f",
    # the reflection halves left fig5's datasets unchanged and moved its boundary_max
    # (5.8e-7) by 3.2e-22, 5.4e-16 relative
    "json/fig5_manifest.json": "2cc364c11c2a0d22aea94fd00fea33845871f509c228d25489ab666ede027485",
    "fig5_manifest.json": "63ed35a50b4dccd58a2681e3cd1bb9a5343a19ba46060bb9d5bad8666517b19a",
    # spectrum: 317 cells. With exact parity the 100 odd states' s_n fall from
    # up to 3.9e-10 to at most 5.3e-16 and all 201 centers from up to 5.1e-8 to
    # at most 3.6e-14 (the whole-matrix solve left mixed pairs, which
    # diagnose_states re-projected); 15 even s_n move by at most 4.9e-15 and
    # one energy by 1.2e-12 relative; residual_norm is the larger block residual
    "spectrum.csv": "3c52e3102b00f8952088ea2d53590aa9e57f62b200b111cc8c6ac8748dfa7c6e",
    "json/spectrum.json": "3429efb0146b26fdaea42178bf4309054bb9e4e0401c7708be6483c28080f4b2",
    "json/spectrum_manifest.json": "dbee46703f04650270826dfdb65b7c4a06533592458e2a3dbb09b4baf977007f",
    "spectrum_manifest.json": "cda156bf52578272bec5391138683062865e27e3c14d73a09b3135917e5319e2",
    # sweep: the same cells as fig1's quadratic rows (2, then the 1 of the one family)
    "sweep.csv": "f2d51855364bcff4529c7fea4cbbff592e79ee086f983a190183d068b2fd5bec",
    "json/sweep.json": "77a2001852d575926d526593b5a00b188f0cd604bdab609506540fe59754f74d",
    # no lattice.a in the config echo, as for fig1
    "json/sweep_manifest.json": "fd6bd2a1a23512e02d424a5d240c42ee7f8e3f2bad96582b2f19df337d368c6a",
    "sweep_manifest.json": "916ba5f3465f3e75f18cb9cdd46d558efeabda66c1fe3b70a5131c09ba2fbf87",
}


def _digests(out_dir, prefix=""):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        if name.endswith("_manifest.json"):
            manifest = json.loads(data)
            manifest.pop("timestamp")
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii")
        found[prefix + name] = hashlib.sha256(data).hexdigest()
    return found


def test_default_datasets_match_golden_digests(tmp_path):
    env = {**os.environ, **PIN, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "csv"), str(tmp_path / "json"), *EXPERIMENTS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    found = {**_digests(tmp_path / "csv"), **_digests(tmp_path / "json", "json/")}
    changed = {name: digest for name, digest in found.items() if GOLDEN.get(name) != digest}
    missing = sorted(set(GOLDEN) - set(found))
    assert not changed and not missing, f"changed: {json.dumps(changed, indent=1)}; missing: {missing}"
