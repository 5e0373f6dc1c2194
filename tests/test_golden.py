"""Golden outputs: sha256 of ``--json`` reports, pinned across versions.

The determinism tests compare two runs of the same code; these hashes
compare against reports recorded before a change, so a refactor that
alters any byte of a ``validate``, ``verify``, ``cox``, ``euler`` or
``reconstruct`` report fails here.  Regenerate them only for an intended
report change.
"""

import hashlib

import pytest
from fan_strategies import product_fan

from toric_cox.cli import main
from toric_cox.corpus import NON_EXAMPLES, SMOOTH_COMPLETE, corpus_path
from toric_cox.fans import fan_to_json

VERIFY = {
    "p1": "483af52a749c8b544ed0df2ce7ca614c4aedd605b6baee51ef2f17bcbebb0811",
    "p2": "86bda95da82e2eca6197d4e48de99a4e22082e998604e894f165257ca469a5ff",
    "p1xp1": "09e5aaf28e7b670ce68d4b658ac481a6843db6a5050ba503b3816c372580ff6b",
    "hirzebruch_0": "007d7989e054201bcae6bf3de00f335d645fb7ace900bdb8a7f039c5f55f7caf",
    "hirzebruch_1": "827416a9a548b53eacbdf9475c016ba6815ffede2eb7828369ca0db1bb8993a7",
    "hirzebruch_2": "9219262d865ff8f5e693a5506b2d2fdcf9205d34872bb1b1eb38300453b8e239",
    "hirzebruch_3": "e6ab7430b02caffcc2afe82d373a22ba4f935131c415c7f6de40b25b41cd07de",
    "delpezzo6": "fafd8fa3dda8435d18085e730b5f3be8fd0ce615b8c3e3c55a4c5367d66b816c",
}

# ``verify --json`` on products of projective spaces, written with
# ``fan_to_json``: the corpus holds surfaces of at most 6 maximal cones,
# these are of dimension 3 to 6 with 4 to 27
PRODUCT_VERIFY = {
    (3,): "3523b1be50ab537244166b0d80a0cb0605215c190dd5f417e05361422804ee39",
    (2, 2): "2ce1181408c44140ef1408a1ed4a0ce00d7a36cff937b2d3930031f153c32267",
    (1, 1, 1): "2ec38385483350a03c9f6d875abfae674cbf7296164ae95f9574a5126507c305",
    (2, 2, 1): "497a9010f2e3dba06f47bd22716f6c73dcc8e7948f08064b43d53e78a71bcb73",
    (2, 2, 2): "f1036a7877633f1b5c0964080d81199a349cef2ec36cf8288cc336a6a8911c64",
}

COX = {
    "p1": "a0fcd5fc2076dd0d053992861d51f5bebd661fe0823be5a30ba2cbc084e3f3ff",
    "p2": "dc4fe52c7e641a4a52560792f230607bdaecf98b18f2849b6ca2cd39ba0cffdd",
    "p1xp1": "d3b64b23b4d50a88bc7878f825a104e1eda38ca1246e150951de9cc5bd3df0e6",
    "hirzebruch_0": "b1c12743089a7869c1bde706a92873324b40e0eefa52c8b84615ce74a1e3da37",
    "hirzebruch_1": "730f81e828b132a562bc6578ad4f0dc9f4e0aa59bd18a3f419131b80e5347862",
    "hirzebruch_2": "3ff93d042388b0b5b7247203b95025d64f46c591eb31167c80d985d9de08400a",
    "hirzebruch_3": "b96eca2d215d3bf29aa0d84a519a826cd129627b652469b790c01e70c7485fc9",
    "delpezzo6": "d5dc3b1f52b03e244e6b7d25bb25f8eec083aca7d90bf27a579047a435c6307f",
}

EULER = {
    ("p2", "2"): "a49fcc6cfae08d1eccb12fd89e24eb39649776a3f0d6d0fee488d185adbb7b71",
    ("hirzebruch_1", "1,1"): "a7f74a8e9b184556befae96fc684af2b8892d4f6ca27b4def219fc592336aef8",
}

# (text, --json) digests of ``validate`` on every corpus file, with its exit
# code: the two non-examples are reported, not rejected, and exit 1
VALIDATE = {
    "p1": ("264d64ac0aa0422c276d6679950b540c4a4dcc413b8cd20b6fe1d946357aa677",
           "9a8e489a29fc03eeab64c7c059267e3e2ec86f971aca1cf13340af31148776dc", 0),
    "p2": ("0862cf0e04ea36bb46c39ddde205952b90b07e076d9e38542d9dd506c32f117e",
           "a8d91015f5f346e2958b971576adc817219cf7ba30bef87bed2c15625deecc47", 0),
    "p1xp1": ("f975a009cffaa01830e9baed838f6caa850ef830728ba45c79d23972aa626438",
              "f06f3ca996140119ebf9bc0f7d628d0cda6bd6dbb0b9c6b76c9e337e6ff0673e", 0),
    "hirzebruch_0": ("9652830cf0631a977430760262491eae5157614dcaa244a4e11b930d6dfbc731",
                     "c9a0625f020714c7b42b143ad940e73c2a5f66718fce4b91768f4162348957c3", 0),
    "hirzebruch_1": ("be5bbce99476aa1add46a1578077e33ebb1a3e977154628668a1e4be445e324a",
                     "4c2823873f7859c9e0a07b71ead0e8e94f41b51fb3e8182ad1477426790353b4", 0),
    "hirzebruch_2": ("23b3077ca44d6a81821cce55258ecbcc571221ca985bbccf791758b587a6d384",
                     "cbed1674cdf7d2211ae4667941738ed8ea0a80fe2bc6c6039c578ce1b55d8450", 0),
    "hirzebruch_3": ("a1dd5d424c6e4aef2ffb2e5f3ccf3bf3c9e0949385a8444b63aac05c7e2156ab",
                     "1ee6d67be1528de8100b3119625d94b90ce90bbb115ead5f24a2209287a72cc5", 0),
    "delpezzo6": ("b9f06247ac31dcdb8e09d342b25cd59c3b7547eb07030d3b2751f88e657a5af0",
                  "13fe32aa6d1a0738cb5e3fbf8649860dc01481913b359df1c2b0309fc676b157", 0),
    "singular_cone": ("d60afd57857925a9f8c340e95c8a0feb3642c138c51b630944a08a73a7a12df5",
                      "17235a3437a67bfcc12c0843d4426ed25a7f8ac68da1d3bf99aedc928e1af53e", 1),
    "incomplete_a2": ("a76405301f06ed13bf78e94f3c68a5c1c15f0608bd52dfa55648e968f6339cee",
                      "4c1bf5241bda54be6b655a9855dec4ade374a7b4dae8ef274871b92da16ae332", 1),
}

RECONSTRUCT_P2 = "43311a4477c538c557387d7a9d78fa538766a3e003fe06e5c0e2a76a24c13e0d"


def report_hash(capsys, *argv: str) -> str:
    assert main([*argv, "--json"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_smooth_complete_corpus_fan_is_pinned():
    assert set(VERIFY) == set(COX) == set(SMOOTH_COMPLETE)


def test_every_corpus_file_is_pinned_for_validate():
    assert set(VALIDATE) == set(SMOOTH_COMPLETE) | set(NON_EXAMPLES)


@pytest.mark.parametrize("name", SMOOTH_COMPLETE + NON_EXAMPLES)
@pytest.mark.parametrize("form", ["text", "json"])
def test_validate(capsys, name, form):
    text, json_digest, code = VALIDATE[name]
    assert main(["validate", str(corpus_path(name))] + (["--json"] if form == "json" else [])) == code
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == (json_digest if form == "json" else text)


@pytest.mark.parametrize("name", SMOOTH_COMPLETE)
def test_verify(capsys, name):
    assert report_hash(capsys, "verify", str(corpus_path(name))) == VERIFY[name]


@pytest.mark.parametrize("dims", sorted(PRODUCT_VERIFY))
def test_verify_product(capsys, tmp_path, dims):
    path = tmp_path / "fan.json"
    path.write_text(fan_to_json(product_fan(*dims)))
    assert report_hash(capsys, "verify", str(path)) == PRODUCT_VERIFY[dims]


@pytest.mark.parametrize("name", SMOOTH_COMPLETE)
def test_cox(capsys, name):
    assert report_hash(capsys, "cox", str(corpus_path(name))) == COX[name]


@pytest.mark.parametrize("name, degree", sorted(EULER))
def test_euler(capsys, name, degree):
    digest = report_hash(capsys, "euler", str(corpus_path(name)), "--degree", degree)
    assert digest == EULER[(name, degree)]


def test_reconstruct_p2(capsys, tmp_path):
    grading = tmp_path / "p2_grading.json"
    grading.write_text('{"Q": [[1, 1, 1]], "w": [1]}')
    assert report_hash(capsys, "reconstruct", str(grading)) == RECONSTRUCT_P2
