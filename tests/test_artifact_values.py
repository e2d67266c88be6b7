"""A tripwire on the artifact bytes: every number that the ``corpus`` jobs
write at seed 1 must equal the frozen reference artifacts in
``perfbench/reference/``, except the positions that depend on the seed and
the values pinned in MOVED below.

A change that moves artifact values lists the moves in CHANGES.md and
updates MOVED beside that table, so a move never goes unseen."""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

# (artifact, token index) -> the number written now, for the values that
# moved after the reference was recorded: exact norm sups in place of
# samples and the tower-defect fix (the commutation, semigroup and tower
# rows), the divide-and-conquer envelope (golden_lip_inc flow_sup_l1) and
# the rotation dominants without nested quadrature (domination_chain)
MOVED = {
    ("golden_lip_inc.csv", 37): "4.440892098500626e-16",
    ("golden_lip_inc.csv", 41): "0.0",
    ("golden_lip_inc.csv", 87): "3.1031676915590914e-17",
    ("golden_lip_inc.csv", 93): "6.206335383118183e-17",
    ("golden_lip_inc.csv", 611): "-0.02517978978617247",
    ("golden_lip_inc.csv", 613): "0.10588417044268006",
    ("golden_lip_inc.json", 49): "-0.02517978978617247",
    ("golden_saw2.csv", 44): "0.0",
    ("golden_saw2.csv", 98): "2.7755575615628914e-17",
    ("golden_saw2.csv", 113): "2.7755575615628914e-17",
    ("golden_saw2.csv", 4532): "-0.05929672853375456",
    ("golden_saw2.json", 62): "2.7755575615628914e-17",
    ("golden_saw2.json", 93): "-0.05929672853375456",
    ("product_z8x2.csv", 23): "0.0",
    ("smooth_rot1.csv", 44): "0.0",
    ("smooth_rot1.csv", 98): "1.7363183345480266e-14",
    ("smooth_rot1.csv", 101): "2.1316282072803006e-14",
    ("smooth_rot1.csv", 104): "3.522206199221683e-14",
    ("smooth_rot1.csv", 107): "3.9059449978528264e-14",
    ("smooth_rot1.csv", 110): "2.1316282072803006e-14",
    ("smooth_rot1.csv", 113): "2.842170943040401e-14",
    ("smooth_rot1.csv", 116): "3.073856854085357e-14",
    ("smooth_rot1.csv", 119): "2.353672812205332e-14",
    ("smooth_rot1.csv", 122): "3.1481833000705627e-14",
    ("smooth_rot1.json", 64): "3.9059449978528264e-14",
    ("step_z4_half.csv", 20): "0.0",
    ("step_z4_half.csv", 26): "0.0",
}


def test_corpus_artifact_numbers_match_the_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import reference
    import workloads

    inputs = workloads.setup("corpus", 1)
    for _, job in workloads.jobs(inputs, str(tmp_path)):
        job()
    artifacts = reference.load_artifacts()
    files = artifacts["files"]
    assert sorted(os.listdir(tmp_path)) == sorted(files)
    problems = []
    for name, text in sorted(files.items()):
        want = reference.tokens(text)
        got = reference.tokens((tmp_path / name).read_text(encoding="utf-8"))
        assert len(got) == len(want), name
        skip = set(artifacts["seed_dependent"].get(name, ()))
        for i, (a, b) in enumerate(zip(got, want)):
            expected = MOVED.get((name, i), b)
            if i not in skip and a != expected:
                problems.append(f"{name} #{i}: {a}, expected {expected}")
    assert problems == []
