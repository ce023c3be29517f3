"""Golden stdout: sha256 digests of every command's output, text and json,
on the three fixtures and on one basic set whose index automorphism has
p/q entries.  Any change of basis in a Subspace or an induced map, or of
formatting, changes a digest.  morse exits 2 (no ambient maps) on the
horseshoe and the four-handle, with empty stdout."""

import hashlib
import json

import pytest

from conley.cli import main

# Its eventual image has the reduced echelon basis (1, 0, 3/2), (0, 1, 1/2)
# and A+ = [[-1/2, -3/2], [1/2, -1/2]].
RATIONAL = {
    "basic_sets": [{"name": "rational", "index": 1,
                    "matrix": [[1, -1, -1], [-1, -1, 1], [1, -2, -1]]}],
    "ambient": {"dim": 1, "homology_maps": {"0": [[1]], "1": [[-1]]}},
}

COMMANDS = {"index": [], "jordan": [], "zeta": [], "morse": ["--q", "1"],
            "verify": []}

GOLDEN = {
    ("horseshoe.json", "index", "text"):
        (0, "932dad562e7d735e06bef2b482d33989ba863a527de83b33eddb2379f50d5e31"),
    ("horseshoe.json", "index", "json"):
        (0, "c95c1bb1ad18b5b313de91feb9f044de3d41799fb1d7632a8e910d8c271d4794"),
    ("horseshoe.json", "jordan", "text"):
        (0, "03166412f70885522976e637ed6e7f7671d8a50c881d1e8d47808de964d9a78e"),
    ("horseshoe.json", "jordan", "json"):
        (0, "1ba28fa8891319d16c16fbb1bd925a7d39b8e5ad89f81a228480d13274d86d9a"),
    ("horseshoe.json", "zeta", "text"):
        (0, "71c72bc5cdc5226afbc0306180399ac92c3a0e765fb4f9afbb54eca5a06163f5"),
    ("horseshoe.json", "zeta", "json"):
        (0, "bbf8066974dc0e5380b45f6f412abb233cab9a69ea7deef92cae9ed30baeb18e"),
    ("horseshoe.json", "morse", "text"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("horseshoe.json", "morse", "json"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("horseshoe.json", "verify", "text"):
        (0, "6472aa78e80d6b994e77935a9db547d95f11fc1662ccf99077108cc9f08db8a3"),
    ("horseshoe.json", "verify", "json"):
        (0, "982e4dce511d75079443322c7a28cec320a8db2e9026df167764167da4e9156d"),
    ("torus.json", "index", "text"):
        (0, "927871526f20d3a9eacab2e8d1c4c3ad7413dbaa151e2236ec0ce49e3db297a7"),
    ("torus.json", "index", "json"):
        (0, "aba3acb5099332f5344a53eb463dcc53cf5931b3dbb8875048acd8deb0f976a0"),
    ("torus.json", "jordan", "text"):
        (0, "6d5c74be5a0e937966bae803a2995e79e5cd7f15f974ecefcfdcd39a728758f7"),
    ("torus.json", "jordan", "json"):
        (0, "e23d4fc3aeb39bba4ea9d4af83b463f235dae9e30c6bd3afc51e2ccd87bf507a"),
    ("torus.json", "zeta", "text"):
        (0, "4b91cb9c11e6ecfed4cd639d8e31ae61690f573cb9852b4006c92cb6d6cc8802"),
    ("torus.json", "zeta", "json"):
        (0, "f471b04f6118dac0f03cf4550086c9423f74a9164554d4f90308d296c005cdd2"),
    ("torus.json", "morse", "text"):
        (0, "630c1bd5f0664eac912d7401b8017631138698ca7dd063b48656bf33cdbd0531"),
    ("torus.json", "morse", "json"):
        (0, "bf400932d9cfd579a2abdd8449f342d07d8600237b3eef1f043114e163f61a43"),
    ("torus.json", "verify", "text"):
        (0, "bdf21e5ec0822de33ac70907ae8f4bf9d68f944c09b1d20d9d02b1c191fcf3ea"),
    ("torus.json", "verify", "json"):
        (0, "10a9224a29abc447d519b0875d724d9fbfcdafd0ba23c9db63f12f33038f9ed9"),
    ("fourhandle.json", "index", "text"):
        (0, "b0a10a016830d921176b555eb2845588f22589ebf7374add4e1229859d7ee468"),
    ("fourhandle.json", "index", "json"):
        (0, "3b52f9ae885325d0687e0551fe7908eec8209e8c2f5f0f103daa87522a40d57c"),
    ("fourhandle.json", "jordan", "text"):
        (0, "63ec3dae103f050ad13aed6985cd22313048e1639949d7cafdf8202f9b3f8bf7"),
    ("fourhandle.json", "jordan", "json"):
        (0, "b1db02c4245821a89bdb29efbdaf25512c4185924410fb74b32a676259559a7f"),
    ("fourhandle.json", "zeta", "text"):
        (0, "5b1ef8d76600e69c8bd774dc1f98874c1526ac508c545d97fbc15b42292dc1ce"),
    ("fourhandle.json", "zeta", "json"):
        (0, "4393338c6cb4ad1c5662553eb6ebb6807612547d2abd556e558d46e185cc7e4b"),
    ("fourhandle.json", "morse", "text"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fourhandle.json", "morse", "json"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fourhandle.json", "verify", "text"):
        (0, "2505ce38bb6f619c3a76783124666cd5f0f942fe7985068a56df3a7a31a03e9f"),
    ("fourhandle.json", "verify", "json"):
        (0, "0d6fff09b3fdfed6eeead208b9b563eed06b3a0957ecbf332e6505f88501c3a9"),
    ("rational.json", "index", "text"):
        (0, "6744bea56e5e4befe0c095717d57a18bd364412edf4844ecbd30e7caf775a5ff"),
    ("rational.json", "index", "json"):
        (0, "010a2a1b1c709f5abe9c425dcb6973ca7f8ae925f5dcc47698588d56c71f4938"),
    ("rational.json", "jordan", "text"):
        (0, "f3c1fab37f5eec553a2f08c0f2ed022aba4024500d78181170e85e840fa179c6"),
    ("rational.json", "jordan", "json"):
        (0, "0cc5698d5fd943ce01c1de1cc26a95485d2b25233dcadf3ce81f53a711f2fddc"),
    ("rational.json", "zeta", "text"):
        (0, "65bf894f6f0e16250baef4a83213a5212f17853281620f2a08f6e801ed333d92"),
    ("rational.json", "zeta", "json"):
        (0, "2175ee7588dcad4c510405eb0fa7691f2d8e3181f1c552315f3162909b0acb6b"),
    ("rational.json", "morse", "text"):
        (0, "b47799293795127864c96455b470972817ff1c0509ce8ba46eaf6c55901cc0de"),
    ("rational.json", "morse", "json"):
        (0, "f4e25633c057cd0962d5e71f507d28687d35776c1cbde3b2fadced25033e3d0b"),
    ("rational.json", "verify", "text"):
        (0, "83ad0109331fdf2d7da1e1c7639cd88dc38649408d23d3e72427a84016f59b9f"),
    ("rational.json", "verify", "json"):
        (0, "b8c93f8f3dad5108d4ada140ec6ab3235099485a68f2d2ef4045b515e5510d29"),
}


@pytest.mark.parametrize("name, command, fmt", sorted(GOLDEN))
def test_stdout_digest(capsys, fixture_path, tmp_path, name, command, fmt):
    if name == "rational.json":
        path = tmp_path / name
        path.write_text(json.dumps(RATIONAL), encoding="utf-8")
    else:
        path = fixture_path(name)
    code = main([command, str(path), *COMMANDS[command], "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        GOLDEN[name, command, fmt]
