"""Golden outputs: sha256 of ``--json`` reports, pinned across versions.

The determinism tests compare two runs of the same code; these hashes
compare against reports recorded before a change, so a refactor that
alters any byte of a ``verify``, ``cox``, ``euler`` or ``reconstruct``
report fails here.  Regenerate them only for an intended report change.
"""

import hashlib

import pytest

from toric_cox.cli import main
from toric_cox.corpus import SMOOTH_COMPLETE, corpus_path

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

RECONSTRUCT_P2 = "43311a4477c538c557387d7a9d78fa538766a3e003fe06e5c0e2a76a24c13e0d"


def report_hash(capsys, *argv: str) -> str:
    assert main([*argv, "--json"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_smooth_complete_corpus_fan_is_pinned():
    assert set(VERIFY) == set(COX) == set(SMOOTH_COMPLETE)


@pytest.mark.parametrize("name", SMOOTH_COMPLETE)
def test_verify(capsys, name):
    assert report_hash(capsys, "verify", str(corpus_path(name))) == VERIFY[name]


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
