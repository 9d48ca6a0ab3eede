"""Bit-exact golden values for every Gauss-Legendre rule the package builds.

Each digest is the SHA-256 of the space-joined ``float.hex`` strings of
``gauss_rule(n).nodes``, ``gauss_rule(n).weights`` and
``legendre_roots(n).roots``, in that order.  The digests were taken from
the exact-rational (``Fraction``) rule construction; any later route must
reproduce its correctly rounded doubles bit for bit.
"""

import hashlib

import pytest

from calcverify import gauss_rule, legendre_roots

GOLDEN = {
    1: "0f9c3634f03dc9d9ce9661b63e357b47436460a7320c35340809fae5ea20ff0e",
    2: "5e1324e170c4410a0cf44fc5ce4186c4a58320e0887af7a1905b6af25be1a0ef",
    3: "dbafa9851ca80fccdb1dd996d9ae894caaa6a7c0dbf40f1b2de0042bcb6ea40f",
    4: "876af582f9adcdebfa89368ce22aa87c9d8461e3a779019221e523d30b145ec7",
    5: "b995adb30355f67bc017780bee75deaa33d9f60c4ba30a468b13c3a5de2c5fea",
    6: "2ce5a4d92e9df7d794315c6c74c3cdc86e78ff6f375e012155aa9f2ea0ce3bc3",
    7: "d27c89f4f272bab32696118910b2fb0a3a317e0c715e20ce3f3ddc5e2a4c5aef",
    8: "994b20e12f80c87fdd4d19820b1a2a66ac88a8f87c256a92b9a590303a128955",
    9: "de232dc1c17cc1e3681f6ab75508225aac954854ff4c5309a43515a026d53afb",
    10: "4291e5c6678b3128fcb6685c5fd58ac90af1b82bafd782730b5b7bea9473b048",
    11: "b39dcdaf31f5ea831aed1ffddb171af5d8ff99be6c4469524236261d98d4c37b",
    12: "ede0c70acaeb3e15a66f5fed0775f17b7929b6494c82e7b07a44601cfc71ecb8",
    13: "46a92c98a5c1b04d8259d7ff937fff11408c181d5aa8b3f803fe2edf24eb351e",
    14: "aa138235293d6e7c5034f4716d42f4fdc475adbace36f35ff0b89d8e91688b39",
    15: "20e31c14ed0c54e2db59396a2f59f78fa19a6de8b972511bd6d7610032a845a2",
    16: "04fc6fc00b48db1febbc5863234e1a2e204a3db7e7abefe45481e3dea53f30c4",
    17: "84f141d564b6b5e3d7df5d317eb3d3001b13289a411ae1365d9350ce6ce4f925",
    18: "e0c8bf20f403772af81275a3868df5c0745a34c2f0d2e8afb3dc6687a0a63400",
    19: "418c3e1e62b763ffd0c99db3b1201576d8227631fd98f63d29c66deb2f560633",
    20: "52d5a4bb429362a2522608aec3e58e8cf4a5924539c345c5478c80d99be6e1c9",
    21: "f5ea36bbaba8359296e4b3187be472a799af7a9122fe29a57cfcba44a9f2c4ec",
    22: "41e4a38228609bb3d5b4fd409f8decfbefc57d57bc205c41ff25baf9ea712fa6",
    23: "45da8f0939fc65c6dbb3c16147eb3af69d6a57a4c4f2ac27f4f3d1453e718972",
    24: "a82e9e71576873172a33fc52673e2d91cd143fe2425b4492aa074f40ba2af58b",
    25: "91a2e556fed1f0df975a8f0a27e896992e6e9589345b9d992c7e9330827d5d54",
    26: "79f2de12a32a79403a548793ad0576c40329d8bed637669360ec84a45e626b95",
    27: "b85a32959c00dbe7dfed362f3caa4e547a8a1bf41687dda020367b325dacc128",
    28: "48616ea5aad7a796bb0301b5849194a974c222ba7fa7ba6a19593e074d563c42",
    29: "67f1977705be4e07aa6c0cabfb218112c259c6844f59c5832dc074b19f7f65ee",
    30: "175419bcd6db4f2e88bd94b9869a368dc296b6b6b2e5781966bb7e38fb67dbec",
    31: "17362af702e5dd1cc36d1fb5b5659cb319790eb8ba33c7f6cd7b8cf60ad8dbdf",
    32: "c2efe2ac7ac74bdf9d248d5b6975c27f5f694dbdae5fa39c3ddc99ba02f8011e",
    33: "1f1da342b81b4f47283a3798afd255191bbc9b394a71f6305cefc8ab91e7858b",
    34: "959e679c31378c67b97cbf918365deffbce9d1015f4c34a479de028dcdb50c34",
    35: "b36a87ddef51b69cbd7e4d188eef23a59bf08b22f1656e219914a0932bff4a49",
    36: "1528d37820c217115553ac77e3c5ca55c34f9f3dae431123cf5749d707f9f473",
    37: "d9aab07e3a9be338bc56cb3a60718996b7cee51a1d0fba53da59a5147f5d6c45",
    38: "be01f0b7f5f0ef766ef39c31450864e8482261749aad40f1f89dac70f5441998",
    39: "c0a355352c442e9cb7c55a22681a1589969aa11006d8a45196d37cdbf1bfb691",
    40: "30cf62623edc1ebeb7568605c4bed5930943920bfe6ca0b5cc9dbf03679a6fb3",
    41: "e0a2f69d6aa3b2bcfb055d1cb6d097d79d32d24c2ff124ed9a672935dafe5d91",
    42: "d8efbedbc6cf70604b83be500eb346f4caa62737561cfc9f0bcc1fecd73b2bf9",
    43: "34bbd99f51a5090cfca40a099235f88fb5486b50a62fd861d35136c4dcae2d20",
    44: "2572e53d41c485d85df5b87d76532b6813170abdf72838d5fea3ae852fd3e399",
    45: "400257ca1bb9554174af0660e0d466895fae6069d235e45f34cbd20368b9d5db",
    46: "56230b840402f4e4744bd8988d7aff950efc2e5b9e05f66d69b22f09f7954915",
    47: "d44a414f6c1f652405cdaddb632c8b2695e6fa9b015528dafebb84fb5e2fab72",
    48: "b7f3485079845b3ee09cbcf997745a0cd2bb420e3c32337affb451a91533f0bd",
    49: "2b2e417f6132884a4f7dddd8982261665197ff307f60ee82042ef81ea81fcffc",
    50: "046320d719a46da6ad0d603b92e4cebf7905fbac5398d7462356c1be7530b03c",
    51: "2a4d2b5aa91d0e0ca5b3d0cd73206da112d56e4340090766ed286cb0f31d82cc",
    52: "f5c6dbe4f9722e054f3ddecb0a0b3fd38bae0870c042213dc949f833489c4ae6",
    53: "6aae58fbbf698b0d2a4e1b9e5555eb643f97c732098bee6148c86fb3838ab212",
    54: "9f31351faa3716e9d1c4ab339b1aa952d0b8a293772de120472f49cbdb7f546b",
    55: "f3e8602bdf85df04fd3206f6a302dc303f2c5a452f0e171e666823c3d0bcd182",
    56: "19e525e167ad8ee828976d50b61bcf4cb8910a8d6f21a28c579c3760d02f0551",
    57: "2139c05787dfcb5a1be4dd4d41bc3d290c1861ef625e82b61e707a728eb71e02",
    58: "c724b7973d025aa05935ebc161bf008f40aa89710f516f71158a23665da4acf6",
    59: "3a8f98f2c8f1c54acaebd21e44516f555e6fb2f8b0bf2b12fbbdfd64d89c4698",
    60: "47b05995222006621fd0872283344be907d2a2959b851e0b83e638ed7011f6c2",
    61: "854ccfd2be1551ea0be6334b674c6d0d11db6f4c8d42dff5d5d25a35d582d91a",
    62: "2d9170d5ad0b1b5ffc48614c00f3d011d7c797fbe7c425e6cbf9827b8aac4d3f",
    63: "239d746995cd8a74bc329b9075e5548bc5bacb47c6c58d9ec0bc9cec3d297126",
    64: "d6d0b2e57b5745d96542eaaa8ba514fe8d94428f88ea5fc1a83fdb6bc4160487",
}


def _digest(n):
    rule = gauss_rule(n)
    values = rule.nodes + rule.weights + legendre_roots(n).roots
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()


def test_golden_covers_every_rule():
    assert sorted(GOLDEN) == list(range(1, 65))


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_rule_and_roots_bit_identical(n):
    assert _digest(n) == GOLDEN[n]


# SHA-256 of the space-joined ``float.hex`` strings of ``legendre_roots(n).roots``
# for n = 65..128 in turn, taken at commit 97d5427: no rule above 64 points
# has a digest of its own
ROOTS_65_TO_128 = "13fc8f80d5162007504d67e3d7c40bbf5bb5c25e0ff62f00f7ff3f156c7b1f48"


def test_roots_above_64_points_bit_identical():
    values = [v for n in range(65, 129) for v in legendre_roots(n).roots]
    assert hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest() == ROOTS_65_TO_128
