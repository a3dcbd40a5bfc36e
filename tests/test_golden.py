"""Golden trace gate: the sha256 of every shipped scenario's trace and of
every corpus trace is pinned, so refactors and speed work cannot change a
byte of what a run logs. The report files (payouts, reputation, designs,
summary) of every shipped scenario and corpus entry are pinned too. The pins are never
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
    "abstainers": {
        "payouts": "c305b768b5ceebcbc09d9d341e52c4c38737b38e33b6471187a8431594f4f3c7",
        "reputation": "af2dfa62d0f7c06dbe9d4792fe6933d0ce9d57f6b587b74b41cc066285b7a06f",
        "designs": "b66ddb320026f3b5269835c98681e46979d4dcdf24b003a0486480c55f49ded1",
        "summary": "74f71125010e03e8901a12a4a78256fb47d00009d5878989a1cecc495cea92a2",
    },
    "all_zero_votes": {
        "payouts": "2b7190b47c176163bbb6cb1e938fd645f9aeb21a09da179736403cc1c3ee34c9",
        "reputation": "d9888215c796eefa85cffce1473a3e813ced698b6e961c9feb74690b18a2fa85",
        "designs": "2292a058bb835b7f2f53a989692f2283d997cc529540a1c5fa277004b38e43ec",
        "summary": "e40cbeba7dfd9f9c31a6101f9c7b8bdf506fa2e5685208ad3a463775f65cb852",
    },
    "colluders_block_attestation": {
        "payouts": "548dacc50c0bba09df79da6be8876ee852dcdcffe175f652e7f352540fd808b4",
        "reputation": "bc0aa48a92eb2ab677012272e77683121ffb836b5d1264c2b9563a3d7a829569",
        "designs": "b161b7df888a42517396fae100b0e5bf63853f45be766c808661203ccafe13ee",
        "summary": "2bc2424d290ddd8b445d611486fea1e8ba83d8962d4091f82b54667199efdcd8",
    },
    "colluders_capture_majority": {
        "payouts": "8e9a11f7f42e311c9e418c14baf9a36311fdae81684b2b226a76b24ea98e5aea",
        "reputation": "10de3926efc09f3b56d7fa84a6a107bbb409586d6d06a266df2890c55839ffac",
        "designs": "4c0e6380975181078b417380001e6f8156e3f051e3dfdbf1b56f523445d4719b",
        "summary": "1959d8add9316c39f5a4d060819bd1154bf5d9a01ceeb17b37b5dafbda941a8e",
    },
    "colluders_outvoted": {
        "payouts": "3e110f009825bb2a5973ecf08cb8ad2041cd0557f5f95174a222e891aac7b9de",
        "reputation": "bcb84158ff99b58695fd1f82e39efa1abd9f649468f135a15e40c8c3c0c44fa0",
        "designs": "799292fe4b891a866dc5fcfa01324e3270a903558fc4dc72bda8ec07a0e7f04b",
        "summary": "21fdeac32a414addb2f2a7f1a93f9a2b9c55490ae274949987587b4f14a0f274",
    },
    "deposit_too_small_rejected": {
        "payouts": "6f2ab4f31c5a5601ca377bb8d672b4c43ab6371f7f44c349b0c199b146b963a8",
        "reputation": "a2d4b380501fc65afcb115652552d58404d4bcd2495656df42f808207694834d",
        "designs": "b66ddb320026f3b5269835c98681e46979d4dcdf24b003a0486480c55f49ded1",
        "summary": "f3538e35e6e3c62dadd3ca53fa37ceae4dcc77d71b5363c0e41e718dee60580c",
    },
    "derivation_variant": {
        "payouts": "a2cca82a766d54e247fe923c40357887bbf10ea1fc7b7d741ea51af3575fb532",
        "reputation": "cb827d22d40c6886f685bace33fe101a08b626d686ee582a2a0cce8e5dcf6354",
        "designs": "a75dd1e960fbf297849015f5c63542420284ba6db682227626b11a25fa604f9d",
        "summary": "cd598c8d0cacc31ff2b2e955e00a22bc174871a317715f9d8ad3534743347fab",
    },
    "feedback_annulled": {
        "payouts": "7fcf32ac8702ba72cec480bc9578b6141c3062f3de63460d228f7e9d2653fa80",
        "reputation": "0735ab0b4cbb907e0d52e7286ca22ecdc4ca4fa271f7247e40dbf35b0bcfe6d2",
        "designs": "caf3fcd655847970e21156037c0577cfad057880666d226ecd03de37e1dd72df",
        "summary": "f04670078a74ee3a8ac60484fe574cdff0a8488cf97f0272cbd520e365529fa4",
    },
    "feedback_fail": {
        "payouts": "53b8962670f183c98edc5e0755b2c795f3e90a88c59939f257efcbc2d565aa7f",
        "reputation": "5917c91497120b3e8f7aaa32e2c4b063396dcc9d2a279582a2ae4e63cc5c0945",
        "designs": "7efe906753daa07522716156a2814dbc20055016ebcd6115f2268446e2aa4e46",
        "summary": "0ddc66f1aacdd4eb127a860716d8b98683429d7b8d6b8a53080769164b4f8b3a",
    },
    "feedback_free_rider": {
        "payouts": "b9a6605721323c66ba3ecd92f952e844ec4f8714bd52d9984c645b7d39d1244f",
        "reputation": "fb15ca15bb735d96794b93b2027593f4acca675ecfddff9e3ef36866aa38ee7d",
        "designs": "a5be53e8e3da3801cf3fabc7a0911d294c4474b4d47dd3d2fd3184e87cadaf29",
        "summary": "7d1d7e9e4426c4556863f0aeae17c6a36acaa254371247bdbef01f1a74692ae5",
    },
    "feedback_pass": {
        "payouts": "156ede48a6f456a4c55e785c707792eba2e32cacc435bd311dc08279d21f4833",
        "reputation": "10bc2f57346d7a2992e18942beddd4c09847688923c91afb27129116f1909d46",
        "designs": "aab87d298e57f7845b77ed751d7ae2c8a53d7d4bda0bff073e8548029007d1c8",
        "summary": "f02412d64dd6609cacc24ef245bff1b6e880c0d1545e859494f24db3f54f30e0",
    },
    "free_rider_in_annulled_round": {
        "payouts": "55b1d4e0265d8fae38c11dcdd7a656434079773ee4c967663a1a5ce1112e4fef",
        "reputation": "dae52db30e993026b32a7348bfe004ccc7e8dc91410a26fdf4be83c8dd843147",
        "designs": "2292a058bb835b7f2f53a989692f2283d997cc529540a1c5fa277004b38e43ec",
        "summary": "5b2420eabdf48c0151d93902da1c79cf2aa277e730b3c90684d4452944d7f9f1",
    },
    "free_riders_penalized": {
        "payouts": "43399a702ea810a50aaae3872f743016a4d88d02a56bb0d0332af357a1f4da21",
        "reputation": "2bcc6627bca13f14012ca5ec28a8aa446451445122c29c5125cb9c946fe5401e",
        "designs": "a734359bebc917d2dc59d0c97706cf762e9a979e46d3b4461705119e8ff90838",
        "summary": "4383385c8cf8ab3f7444ee731fc78a9375290f1759a6a427c216e96d0bd190dd",
    },
    "guessers_mixed": {
        "payouts": "70aa1256b068a19b888334a27aeff0310479a604efb74f55cd09e017875b6f74",
        "reputation": "2a3045a8ff1281966b81829a91728ed350c437eb576c32e7187a0da5d8006c59",
        "designs": "a434c2fff3089456d8ebc05c0b42649150af86d6a08ff9d41bdf1729fbfa1039",
        "summary": "6afcdd376e254bc73f93078ad1069c9fde5f4194cce1d36bfd459f99b6cd8918",
    },
    "large_epsilon": {
        "payouts": "6f2ab4f31c5a5601ca377bb8d672b4c43ab6371f7f44c349b0c199b146b963a8",
        "reputation": "a2d4b380501fc65afcb115652552d58404d4bcd2495656df42f808207694834d",
        "designs": "b66ddb320026f3b5269835c98681e46979d4dcdf24b003a0486480c55f49ded1",
        "summary": "b7e9743f7b59d9bea8de5d98e994655f5178bed38b1a1caf0e0a9f05d875502b",
    },
    "multi_design_reputation_chain": {
        "payouts": "9413eafa7a7aa2a7788238a84a2ee740e0bef6f53b0219afa086b0ba3e10fa18",
        "reputation": "1604b749c28a2c9a9bd817d7ef15b7be78eb9cbd9c2b13184a5e7ce909053c0e",
        "designs": "c92a46c7f6a6f773861de2a17603222bba03845c741c63cb047afa049096a0e1",
        "summary": "a7febbd15041db26070d262ac84ea9a3843e449f9640d63bc1580e9975a5e344",
    },
    "roster_cap_binding": {
        "payouts": "c305b768b5ceebcbc09d9d341e52c4c38737b38e33b6471187a8431594f4f3c7",
        "reputation": "af2dfa62d0f7c06dbe9d4792fe6933d0ce9d57f6b587b74b41cc066285b7a06f",
        "designs": "b66ddb320026f3b5269835c98681e46979d4dcdf24b003a0486480c55f49ded1",
        "summary": "9cfea60c780a983fa711b319d074a00efe56345cda98e6b326a99fbdbdafa9f2",
    },
    "split_three_two": {
        "payouts": "46fbd9d8c722188c19d9405aec269db99c420768f4d1b1887119ac8bc2742e2b",
        "reputation": "945822f3718a5b3f3370f40c1ced6c7983197ad5732870e2071b57c03d4cf0a2",
        "designs": "a8472930b4c33750ee56cd8021e5715083766bbb5bc93d5f8abdb3acc98a7f96",
        "summary": "b1a4e4e0c04d63fb7131119e78fa2974d52e86330283e994e422e3b96ad66b44",
    },
    "threshold_barely_above_half": {
        "payouts": "876555a0c6018c5a0a96214ae3a1eda60c42b9b2f567699b40595d1181cc3303",
        "reputation": "a2d4b380501fc65afcb115652552d58404d4bcd2495656df42f808207694834d",
        "designs": "b66ddb320026f3b5269835c98681e46979d4dcdf24b003a0486480c55f49ded1",
        "summary": "c0c6a36c0ecf49470404c16520097e2e683f862bdba8b4aea751ad169fb2e2fa",
    },
    "threshold_one_annuls_everything": {
        "payouts": "83c3af8b502c7795a9975293f4a8e4639b2f78fe152b5a6c66a7c0f92dc55c8e",
        "reputation": "ad3b4ca6022733b2d6050424ffc010f58ef707761f005a0e30d2d02cc9d66984",
        "designs": "55248d3dbab7522086b69deaf4af636b8b175c98d1a9125178aaa09b3e7c5367",
        "summary": "19e86e4c28a4ccad47397a1358323a22daaeef7393c6e5f941f5c056fa20815e",
    },
    "two_player_minimum": {
        "payouts": "8d207441b9284da1168e25d82674eb146ebfbfda01b0ee112b126beb4192cc6a",
        "reputation": "4acb7ad30a70ef0b2a87ad0914eb0e57fd78d470cb8e3a7049cee7ebacf9a929",
        "designs": "b66ddb320026f3b5269835c98681e46979d4dcdf24b003a0486480c55f49ded1",
        "summary": "00d0c1c51f90e74379983190a41728c2c612b8479d4ccdb2253e68f254a99665",
    },
    "unanimity_invalid": {
        "payouts": "6f2ab4f31c5a5601ca377bb8d672b4c43ab6371f7f44c349b0c199b146b963a8",
        "reputation": "5a8bd6a67689ac15d4875e9170efc6bd84febf2699d44662d10f1a0fefa0e8b3",
        "designs": "727d31d6458f65e9b824c69e4c498f42246b0ab2c8083a1e68b92b46b48cdde5",
        "summary": "c5ea02620551ac707d4f994fc044e8e98634a58e80e2e9fa16710ecaf598f5ca",
    },
    "unanimity_valid": {
        "payouts": "6f2ab4f31c5a5601ca377bb8d672b4c43ab6371f7f44c349b0c199b146b963a8",
        "reputation": "a2d4b380501fc65afcb115652552d58404d4bcd2495656df42f808207694834d",
        "designs": "b66ddb320026f3b5269835c98681e46979d4dcdf24b003a0486480c55f49ded1",
        "summary": "186cd24cc635eb3aa1c3ad2b6dc7dc94df252d1ccf15b0020d5fe4c26d178f48",
    },
    "zero_vote_minority": {
        "payouts": "56cee5f9c92a6aa062571eee65916285603010cc8dece17491587145ddeea3f3",
        "reputation": "2c194767a8f9dffd9fec9077d17ec923767d8ad4af9ea6a01942849b3b388e59",
        "designs": "4f0b44e6f841d289a979bca4e0c3870b714354dbd7ef5ad164bf6739c12fa80e",
        "summary": "92526789a2f2dd92384428767264bef16101e784e7587319231ffed455a6feca",
    },
}


def _config(name):
    if name.startswith("scenarios/"):
        return load_config(SCENARIOS / Path(name).name)
    return validate_config(RAW_CORPUS[name])


def test_every_corpus_entry_is_pinned():
    every = {"scenarios/smoke.json", "scenarios/incentives.json", *RAW_CORPUS}
    assert set(PINS) == every
    assert set(REPORT_PINS) == every


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
