"""Golden trace gate: the sha256 of every shipped scenario's trace and of
every corpus trace is pinned, so refactors and speed work cannot change a
byte of what a run logs. The shipped scenarios' report files (payouts,
reputation, designs, summary) are pinned too. The pins are never
regenerated to make a change pass; a change that moves one changes the
program's observable behaviour.
"""

import hashlib
from pathlib import Path

import pytest

from attestsim.scenario import load_config, run, validate_config, write_outputs
from corpus import RAW_CORPUS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PINS = {
    "scenarios/smoke.json": "f6187a5b04e07c6e89862f66044d439066713d558847950d8e9329b8cc4dff55",
    "scenarios/incentives.json": "365e8b87831caefe7fc18911ca32c31be34800e3dbd8ce5855e85c42323f4daa",
    "unanimity_valid": "436352e9ed5063ae49ecfcb154731794e2e21455d64fc0a5c035417961d676df",
    "unanimity_invalid": "f6d6df3a5453b0aeb12de05e8321ac1ae652d55bc857df78928c0b2847c63ecc",
    "split_three_two": "a0107b0677c5976ad19613ffff99ee4ed71697228a6ec36efa29bde3be412a7e",
    "all_zero_votes": "620a4aa9e97cc0e7036e92b68742a3fff41d2cc48272236fbfb9bbc501f547fd",
    "free_riders_penalized": "cf38c0ffe9cc677e96cb6bc336db3fab25b5f3fdd6ccf6e87bc3efaae122f856",
    "free_rider_in_annulled_round": "5c866ee0e495501ca1aaf195c405e3e15f2536040360e1a50f8c8f18d43e6cb3",
    "feedback_pass": "53cce751579f2f1fc6afd3521e943e2e3cb20b159bfede5e6e0e3b7083d7c163",
    "feedback_fail": "a8ba4d8f8f4e101788a7661e17c97daf74289b9e61321382ffae0c83f3aa8247",
    "feedback_annulled": "352f2dacc18a4f614df89889fe77713a0cd70b7f2c1489a089adebd632783bce",
    "feedback_free_rider": "ccd9d9bc687c40ef840ae5125e4593d850bab501a16f92482b004f923f55b0c4",
    "colluders_outvoted": "644804ed74544d156cd65c637fa1dd85416406112c28872e732cd356da1e8337",
    "colluders_block_attestation": "16864791f175bd3abb8d9b892921d0f1ad94d2528ab9438a90355e87c4d3aca2",
    "colluders_capture_majority": "bd6139f41a1aa2d7f3d5e829c12c40696d6fc4f45b4d19a5220c4a679e3da009",
    "roster_cap_binding": "4bdbd3222aac984d7feed7705e3d71b759d393edf2766aea25be8a770355d3e0",
    "deposit_too_small_rejected": "801cb32b4838f442b047d7d149a3cf66d1419154c350116822db2d51b658daba",
    "abstainers": "8895f0e2cc3c41a2a9fa6073374a2d6ca9b38f3691de137630668a0aedf7a1b5",
    "zero_vote_minority": "6a928f2e1a1845608a3a32bd0e164adf3251b7df6066f1047befc7a24d38a240",
    "two_player_minimum": "e293aaa3c570cc18afe74fdbc8c747210ce5e93cfae8cb5c324474241df2e29c",
    "derivation_variant": "91b98fb6ecdcbe9d7b20497478a8464fd4435ea89c5896e8522a9a6a551df0f8",
    "large_epsilon": "b35ae3db286d25e09bd3d636e0d480bd4792e8dca44797ce54dd5d4f94ce433d",
    "multi_design_reputation_chain": "dc1746b2c10ef1cc7b86e29594af155ea84546205dd0e3c3607199221921a6c6",
    "guessers_mixed": "c40bda849b190ccde196bf77f192495692923c333a3210c6ce6ad44832c62a66",
    "threshold_one_annuls_everything": "4b149e2b28a08fc71f96b68023ad1d20db09dc1c4c0e79dd4374d31547d65288",
    "threshold_barely_above_half": "c9e5a158907113d2d48f653eaa71daf6ef96080765eb3b58b5a44914064cb767",
}


REPORT_PINS = {
    "scenarios/smoke.json": {
        "payouts": "39d72253905e534e4d2a872e9abca0f86c69cab76651a119de9c9ae3a601ea00",
        "reputation": "d5568a170a482f1d90e0253db9d0f8cd79a7b6c0e64dd6bd715f00720d2e87c7",
        "designs": "407783f8fb90411c217d349890b7817a30fd6d4ecdfd92d9d98bc871f21aa1ff",
        "summary": "3954d3cc62284f8294cedf8eda73ee49796d5855d370f5f1d49cd2364fe3adad",
    },
    "scenarios/incentives.json": {
        "payouts": "77ec37c28d3f2f6af243261e2393c60ab0efe0565add8a3939a91849e0dcaec8",
        "reputation": "934679993f702ede6fe5e33e00612d00029ea8b94d0c5be7c51f559b15d71f88",
        "designs": "81cc1b1c4777eaf5c18d3cf5921e921fed043c9a8c21f10d856d8725c53b0dca",
        "summary": "20b137b8f2ffbe3af75bebe470178443080ce937686b50eb1606c65898622044",
    },
}


def _config(name):
    if name.startswith("scenarios/"):
        return load_config(SCENARIOS / Path(name).name)
    return validate_config(RAW_CORPUS[name])


def test_every_corpus_entry_is_pinned():
    assert set(PINS) == {"scenarios/smoke.json", "scenarios/incentives.json", *RAW_CORPUS}


@pytest.mark.parametrize("name", sorted(PINS))
def test_trace_bytes_match_the_pin(name):
    text = "\n".join(run(_config(name)).trace_lines()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[name]


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_report_files_match_the_pins(name, tmp_path):
    paths = write_outputs(run(_config(name)), tmp_path)
    digests = {
        key: hashlib.sha256(Path(paths[key]).read_bytes()).hexdigest() for key in REPORT_PINS[name]
    }
    assert digests == REPORT_PINS[name]
