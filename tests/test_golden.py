"""Golden outputs: sha256 of reports, in text and ``--json`` form, pinned across versions.

The determinism tests compare two runs of the same code; these hashes
compare against reports recorded before a change, so a refactor that
alters any byte of a ``validate``, ``verify``, ``cox``, ``euler`` or
``reconstruct`` report, or of an error report of each status kind, fails
here.  Regenerate them only for an intended report change.
"""

import hashlib
import json

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

# Text digests of reports whose JSON is pinned above: the text form adds the
# key padding and the status line, which the JSON digests leave unpinned
COX_TEXT = {
    "p1": "f193d66e92bdbe82d67e4d794e3a4c218464628d98cd2f7adb5b7a2f5b2aacf9",
    "p2": "1863d0130b654ae24beac1ff20700a6b8822fd8303dcb171b98f90d5d683c3e8",
    "p1xp1": "96bdcd35dd50ec0b998bf2d43e7ec12c289e7904656497d354868a15249496b1",
    "hirzebruch_0": "b5f93ae6b300f2ed5ccbee014077f8cc520d58094099ac08975b797095ce2a17",
    "hirzebruch_1": "68df4b89e68bfe6435f03e37dc814003a39fe4681fb1261f1f0ba0d463a4b513",
    "hirzebruch_2": "3180af8fa15b89c443de4720779f306730bb17c6ac3b1019bacf4730f3ebc4a9",
    "hirzebruch_3": "189fbc4d8b10c3a1fe20af4362210457f0bdb4a7b11724f33c1f2409adf57a0b",
    "delpezzo6": "503a5dd9ce69d339c3ee8c9ca17442bc71357088a2410bb7c708b67b54195c30",
}

VERIFY_TEXT = {
    "p1": "431745624677fb8b1e501f6d1ecd1d3b97e105f0b8764d54d8dfbfb965bc3445",
    "p2": "22f5c2c2da8f5fba35b023cfe3d53ec1d1b411b293b4bee534edf6873eaa8437",
    "p1xp1": "8a2979f42fbc117c871f20c75e8487098b5f46154ecc2994f66cdf4124a47af8",
    "hirzebruch_0": "6a466e91665917974345081bc4b139a5d20e066abbf46233d618cda2eb01cd06",
    "hirzebruch_1": "bbd4672c3d510649062c543741c6d2d9d0e2602a9a15bd43f8f91315c9808275",
    "hirzebruch_2": "0d10c5b81b96b3c1a033e4a579b2daf24b298064ab73aa66b5f135905898c1a9",
    "hirzebruch_3": "88d93cd7b7876fd02dd9e5cf26a3d96c48e3693817b15430e1295fe744b8e81f",
    "delpezzo6": "42f123c5d07ea55362045a26d2990da1ab7a51328d6d4a82866b1a9a8fdbd67a",
}

EULER_TEXT = {
    ("p2", "2"): "92bdae4018144da1db7ba147132427784350dfcaa62c36dd8b2c5a6931c858f4",
    ("hirzebruch_1", "1,1"): "2dba050878301b9c06106ca3c07d58ed2bae95ee4fa6df290bd396532314ee41",
}

# The grading of each corpus fan with an ample anticanonical class: its
# degree matrix and that class; (text, --json) digests of reconstruct on it
RECONSTRUCT = {
    "p1": (([[1, 1]], [2]),
           "5e8da9baabc21dff07a6a85f7ea6e9069c49bec5600d51daa2354084b22993d9",
           "d7e56c3d8fb6b29b289049c00f892f9564920f922e93dfa942b3ddeef6c80505"),
    "p2": (([[1, 1, 1]], [3]),
           "f10c652e2c21457971505083c94d7e913358d3a65e91579c09d4812eda69bc8a",
           "2d6a2cb90a2cd158a27019c26b1b004d0ce17d61ff02e104f60351a1a94d30ca"),
    "p1xp1": (([[1, 1, 0, 0], [0, 0, 1, 1]], [2, 2]),
              "b5b4765d0c869e4bd800057f1e755f442febbf1e913309690fe273eb8c653139",
              "53e60b3f4aba69c943ba0bfcf8ff2aac7045939b628fc1aeaa5bcc87270de833"),
    "hirzebruch_0": (([[1, 0, 1, 0], [0, 1, 0, 1]], [2, 2]),
                     "10dd56540e39d3573f198e8e55dc51858a5ad10cab581613c6ff07f1503e5f15",
                     "09d484a3b8b5554555a04ca8b2f18b6fca1449e786046f283386e4bdba1fc15a"),
    "hirzebruch_1": (([[1, 0, 1, 1], [0, 1, 0, 1]], [3, 2]),
                     "db25a76d83c49e3043e67fe7efbd2cc798c0baf2b37096f283bfd9e84ec9ad1c",
                     "720d3b3c69583d4e55cef4303b7febb19c7cb4a1bdb09dd13579414299c2a681"),
    "delpezzo6": (([[1, 0, 0, 0, 1, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, -1, 1]], [1, 2, 2, 1]),
                  "ce389c2b1f789231799a5ede43220bc93eb04a66fa740d248d57bf432bba9c98",
                  "d16074a3ddb9a1a278c7cff9a472ed2ca4e174ecb4d59e77a736900785d0028f"),
}

# One error report per status kind: (argv, the input file's bytes or None,
# exit code, text digest, --json digest).  Inputs are written to the working
# directory, so the io message names a relative path.
ERRORS = {
    "io": (["validate", "absent.json"], None, 2,
           "f74b61d3d598f69f4e0b0b73202a825b7b58ab9224a404dd9e79f3de46adff70",
           "ddd08cdd08b15de865d81af98daf926b112842b7640bbd2e01b188f71618fa7e"),
    "parse": (["validate", "truncated.json"], b'{"dim": 2, "rays": [[1, 0]', 2,
              "99d48af8652d77b5ff45c690be2910d58bac3fd2064fd2290abc29dd325d7b5b",
              "eecaa6c62a482bfcd36a270cd10ce59cd6d49e78eef8ee2666d3b49bcb2152ed"),
    # smooth and facet-paired, but a fold, not a fan
    "malformed": (["validate", "fold.json"],
                  b'{"dim": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}', 3,
                  "831e597f4687056f3a962f53251e1d881f23b2b649548e75a3abd2b0ec6f2a67",
                  "f63df77be35baf1694abfe0ff7b3ac922734382e112bacba92724d4e601fa8d4"),
    # a grading of full rank whose image has index 2
    "NotSurjective": (["reconstruct", "index_two.json"], b'{"Q": [[1, 1, 1], [1, -1, 1]], "w": [3, 1]}', 1,
                      "baa49aa021a70d36c4ff53a4d1283ec8ad89d0f7d32a08b260f7b3498c2c6384",
                      "9c1d035e6c15a69c9d6e92782c6e4eb4edb2e48edfc0f9fd5439247c7b138fb5"),
    "verification": (["verify", str(corpus_path("singular_cone"))], None, 1,
                     "ef75597f30f3e83e3ca347a7a00f67099b70e92d5447609faf4f50d0e87e989c",
                     "fea59c820081930cb61296d2278ad4313eb7711ba1e85ab5ce4c8782efd0057c"),
}


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


def text_hash(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", SMOOTH_COMPLETE)
def test_cox_text(capsys, name):
    assert text_hash(capsys, "cox", str(corpus_path(name))) == COX_TEXT[name]


@pytest.mark.parametrize("name", SMOOTH_COMPLETE)
def test_verify_text(capsys, name):
    assert text_hash(capsys, "verify", str(corpus_path(name))) == VERIFY_TEXT[name]


@pytest.mark.parametrize("name, degree", sorted(EULER_TEXT))
def test_euler_text(capsys, name, degree):
    assert text_hash(capsys, "euler", str(corpus_path(name)), "--degree", degree) == EULER_TEXT[(name, degree)]


@pytest.mark.parametrize("name", sorted(RECONSTRUCT))
def test_reconstruct_corpus_gradings(capsys, tmp_path, name):
    (q, w), text, json_digest = RECONSTRUCT[name]
    grading = tmp_path / "grading.json"
    grading.write_text(json.dumps({"Q": q, "w": w}))
    assert text_hash(capsys, "reconstruct", str(grading)) == text
    assert report_hash(capsys, "reconstruct", str(grading)) == json_digest


@pytest.mark.parametrize("kind", sorted(ERRORS))
@pytest.mark.parametrize("form", ["text", "json"])
def test_error_report(capsys, monkeypatch, tmp_path, kind, form):
    argv, content, code, text, json_digest = ERRORS[kind]
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / argv[1]).write_bytes(content)
    assert main(argv + (["--json"] if form == "json" else [])) == code
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == (json_digest if form == "json" else text)
