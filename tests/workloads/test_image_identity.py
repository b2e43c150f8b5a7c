"""Workload memory images are pinned word for word.

``SimStats`` digests and the bench goldens only see the words a trace
reads (well under 1% of an image at scale 0.1). This test pins every
word of every registered workload's initial image: the sha256 of the
image's (word, value) pairs, sorted by word and packed as little-endian
int64, for each variant at scales 0.1 and 1.0. A builder change that
moves, drops or re-values any word -- or draws its random words in a
different order -- fails here even if no simulated result changes, and
so does a change to how :class:`~repro.isa.MemoryImage` holds its words.
"""

import hashlib
from itertools import chain

import numpy as np
import pytest

from repro.workloads import REGISTRY

SCALE = 0.1

IMAGE_SHA256 = {
    ("bwaves", "ref"): "ad9d3c627e425d7812b9c6e090d305911f7a844ec3e5ddd68237961e165f8e7b",
    ("bwaves", "train"): "3cd47725bbe191d04e59f83bd98bbf5cb54c78da412e03bd2af7f751037f7a9b",
    ("bwaves", "ref#3"): "e4c4a5770151ce90f36792fd5090917367e827960ccf3af647c7c59cd2783294",
    ("cactus", "ref"): "4dcd845f6a51b5517fd5e5ba5c7526acc65fe02f0f19813e67371246537fbf9d",
    ("cactus", "train"): "01e4110a62aa49586ff06d4ff5097b809bfbde884a145baefa0ba6df963c6e0b",
    ("cactus", "ref#3"): "f75b443c7a93a42d48468cb46582b0598ab4bf08aaf6bd3b0d6cd6e163913992",
    ("deepsjeng", "ref"): "cc2987fc5460287722d95a0f9617902357084ed5f18edc5cb96d1dd996ef6052",
    ("deepsjeng", "train"): "ddcb6de143072bef9640bc0a0dd9f71a815d26dbe6441841f37caf902ea8ae09",
    ("deepsjeng", "ref#3"): "d8bc4ebaccaa947ebe6527fee71eb05cf92fd1934714a4003a04c4a20c28a51b",
    ("div_chain", "ref"): "1fa366ed2ab46bd9aef66fd9ecb4499c01cd44ae9fcd7654a7f3614f63c03b43",
    ("div_chain", "train"): "1fa366ed2ab46bd9aef66fd9ecb4499c01cd44ae9fcd7654a7f3614f63c03b43",
    ("div_chain", "ref#3"): "1fa366ed2ab46bd9aef66fd9ecb4499c01cd44ae9fcd7654a7f3614f63c03b43",
    ("fotonik", "ref"): "17fa99b44f0719e381392fcaef024080830effc689e19be76dacb38cf2216087",
    ("fotonik", "train"): "6a459f7cc311f94252660a98d5e0329a0c8d89b4a499237ec482d93d991c98c4",
    ("fotonik", "ref#3"): "6d81413c6dde95f53fc80cd866a702ff1e3c2615eda845b0d19f3d54fc046479",
    ("gcc", "ref"): "3cf4d3374a4c5ec46d61a040ee0ef31eebcfe36fa8e15ebd5577a62fb3f02352",
    ("gcc", "train"): "2529f654376c6ec1058f6d266cd19ee40aa795922dbd587e68195d825aa3bc06",
    ("gcc", "ref#3"): "dadc74d4b0edc1800fa995fc3b8a2990d4c85f48a0769b046af974a1d1c68ea2",
    ("img_dnn", "ref"): "102b8233c7d7b7507ddbd4e2ab1e4da742988ce74f6c4e95032d0aa6d014b966",
    ("img_dnn", "train"): "9b43e55bdb756c77510ae7a2a5be99d85197cdd5e954d939cb05d261d120d148",
    ("img_dnn", "ref#3"): "f67cd8d407d19b0220daf58053cd8e50f32683349db7ce160d9665a1f78d3a0a",
    ("lbm", "ref"): "956a2ef8e26d5cd5158fd2b411e49db267719a0068dccbd7a256934261899856",
    ("lbm", "train"): "81940eb3585aebe8b3a84ec06381048f220cfafac10482eecbc4a3c84a31cd35",
    ("lbm", "ref#3"): "45e74021be888ef17b0a318c1b8861fda6c65b4f05139230c30fcbbe57eadf89",
    ("mcf", "ref"): "2d890f911e8905227b8a712ba79f852e3de52d4bf4d544d3290b3c7aeefc041f",
    ("mcf", "train"): "60d6ac4d969f64b4ff2faf8edb71cbbebd3582a31773e41dce7af5f437b68f2a",
    ("mcf", "ref#3"): "d9bc5941468dc9a7ed85fb87ba912e78d0f1ba03a5067c69ddbd4d443e1ba8af",
    ("memcached", "ref"): "171f0b847367964c7688e87184d27845477d9e67ccfa2bd1d8fe5a6f9eed97d2",
    ("memcached", "train"): "8bf4d8db42481a812b25f062fb889f26add3b04123fbdc0449aacc4c0ce06a3e",
    ("memcached", "ref#3"): "9bbb1678b2f73938182bda055a3962f56b5ad62c53c04b238b2f066923d45531",
    ("moses", "ref"): "b0b4433ac5fc930e024a402bd708b7851572a7e1c0aa5cb54c74a18b4e0bd414",
    ("moses", "train"): "828f7d77feccf3bebbec3bff9a6c11930daf16196c3ef388faa851e4bc7a241b",
    ("moses", "ref#3"): "a48d4cd833775329abf53926a798111d3ec21fe6d3150cfe451c2ae3bd0fb35c",
    ("nab", "ref"): "5ad2080164a98e4402b6fbb5e6302b7bba0eb9ac0ff53f28c086ac137f52e0e9",
    ("nab", "train"): "a511f7c23812858b3780f449ebf648158bf22c7a8b5aab66ff714f9b4f7d6f0e",
    ("nab", "ref#3"): "f4938b6d1d7edfec5001b1739ce5bb5ec1cb876548b148003e19e91da72c5c7d",
    ("namd", "ref"): "2d7d33f71a68fa732ceb38180e8a7e0c3da2492f4f85267d37cd6187dad2d57c",
    ("namd", "train"): "30c6063c9d9d3e85b9176863df23f9da6bf8f96180b559f8ba669c2a6ef90652",
    ("namd", "ref#3"): "19d79a94dc6873b9df0f3ea28c7e4c613fd510bc798df5ee91c8ebd709e23e57",
    ("omnetpp", "ref"): "10f25f0851c9a03e99a51b2d6df2007fe7627802076da9ac6b28b93acda1a47c",
    ("omnetpp", "train"): "03aea13244da86f8d1b3a645de64373695782b8edb00b1eeb7fb86f9fb6542c2",
    ("omnetpp", "ref#3"): "ba496546b31d0ae5c46276c675538370a00969f140305d929bdab4edde687ed9",
    ("perlbench", "ref"): "06cf05161fda50f829b425c2240d22717fff14d8aa9df822f3d0bdeeb310bc09",
    ("perlbench", "train"): "defb00d72720c264a681af7ab34837674e73ca1a914ed9b17daf7c43886a9216",
    ("perlbench", "ref#3"): "cb4142d1a1ec75e4e40cf5d2908bf265f37b2d93ab9717dbb4e97733aaa78f9f",
    ("pointer_chase", "ref"): "7057a8121ad0ee94353d57a2008ca08d93d1d2f4d858e229addf9cbba16be6b8",
    ("pointer_chase", "train"): "f3a3985b88484f689b6116ac588481ecca08505f459be62eadc9427ee05e49ac",
    ("pointer_chase", "ref#3"): "3bad16bde71215816055c4b6f6fe05eb5ac587d77383b48a1a96ad782fda26ca",
    ("xhpcg", "ref"): "697784b83080c67fccd7a4dabca8ab0a30d652ddfa8de7788ad2f6aff5ce6503",
    ("xhpcg", "train"): "d17b2f65fd09055246f10349988b67878e371bce9f7c05ac16d9c2c6aafb6fd8",
    ("xhpcg", "ref#3"): "f79e19dae54cb1a3a3d119f09554c9536729eb6c4c05480ef4895ec3261def67",
    ("xz", "ref"): "7e83fffa398e44c2d5e3aae53d8481d0f93ab59ca51f4eb855c195daa9f8c77b",
    ("xz", "train"): "6b180cb3eab6618ae9abc000e97840f097e4116b2cc593e2121a7efd5b7dd226",
    ("xz", "ref#3"): "3022fbbdec85abccde84c55a03389f36b1fa3a0a37227046daf9fa93e09c6ca7",
}


#: The same digests at scale 1.0, where most inputs hold more nodes or rows.
IMAGE_SHA256_SCALE_1 = {
    ("bwaves", "ref"): "c796e4edc33f3b79613c81daa44c2a494b638eadf2212d4c7b16d5e3ca2075ac",
    ("bwaves", "train"): "d3925aeff300730e32d75ab1c7a7f44ef179b5147260253b66ced50806b4c4b6",
    ("bwaves", "ref#3"): "9d2c5974ab126154c1b8da10ec890afa81ed10f3eadc0348c0f2bb40c2c141f3",
    ("cactus", "ref"): "4066bba8b65c4d718534fb46246646675f2d5aff545d7dd514ab08c7999fbb18",
    ("cactus", "train"): "e2e5044435667563e3159860310782575aa87b4128833f7775647b0d1f495b70",
    ("cactus", "ref#3"): "24fbef2c70d5e6c1fe8797fce7b21df921a35a93bd409c1bbae4ddcd00862609",
    ("deepsjeng", "ref"): "cc2987fc5460287722d95a0f9617902357084ed5f18edc5cb96d1dd996ef6052",
    ("deepsjeng", "train"): "ddcb6de143072bef9640bc0a0dd9f71a815d26dbe6441841f37caf902ea8ae09",
    ("deepsjeng", "ref#3"): "d8bc4ebaccaa947ebe6527fee71eb05cf92fd1934714a4003a04c4a20c28a51b",
    ("div_chain", "ref"): "1fa366ed2ab46bd9aef66fd9ecb4499c01cd44ae9fcd7654a7f3614f63c03b43",
    ("div_chain", "train"): "1fa366ed2ab46bd9aef66fd9ecb4499c01cd44ae9fcd7654a7f3614f63c03b43",
    ("div_chain", "ref#3"): "1fa366ed2ab46bd9aef66fd9ecb4499c01cd44ae9fcd7654a7f3614f63c03b43",
    ("fotonik", "ref"): "eb05f8e5caaa31a2c5f79f579765392da8c4d0f7d96c7f3d02fa5e8937ca548a",
    ("fotonik", "train"): "3614789c5d1a441476b31364aa12577133ae217beb68cfa566819d58d9e2d114",
    ("fotonik", "ref#3"): "9be27512764648eb99d7c50e46067fd471a642b78cb70a803c4bac59c794c591",
    ("gcc", "ref"): "7ad6b0bfd938bc3f0f1922988e9e16c1e2fce64fea120b4a86b4ef9c405a55f7",
    ("gcc", "train"): "6e3f75a34377e76b4f23cc2aff102c1da7ac01166bf6c6c2e5ccc472575a357d",
    ("gcc", "ref#3"): "89b5fab8108a624267a3ff56bed385a57446cec20020be786a3ed27b102fe176",
    ("img_dnn", "ref"): "023170309babc94b35fcbe0af0e355467641abc821b8df954ef406f86a679201",
    ("img_dnn", "train"): "174b084c72e73b9bc1acfaf26140654e117e54d65275de967a95c454eaca240f",
    ("img_dnn", "ref#3"): "4f4cdd3cadc3e04a53e241772c1b8083617f9e3cb71013fbf749d705fd18950d",
    ("lbm", "ref"): "016aabd712804b3b3faea609a21793d39e8300420527549004e021443b3922b6",
    ("lbm", "train"): "6f4299e4f824f9ecb32b26667f455a742ae1d908e082d9ff748906034785cde0",
    ("lbm", "ref#3"): "8c1671805b79b7257bcce61bfb73255859d17902b94671a2bbc41e000fce3700",
    ("mcf", "ref"): "c54be2cf661f8a2f4dc109cac554f8857df580f0630c26bcde44bc0a086d6c07",
    ("mcf", "train"): "c6d8ea922a39ff4e9eb6588d1b1b5bc6612fc40f9b252e60be8fba3186d5cdab",
    ("mcf", "ref#3"): "6079d6673cae2ab9764b0e85b8b61ece531cdb8e51b47d9f915fd4ba0963e294",
    ("memcached", "ref"): "171f0b847367964c7688e87184d27845477d9e67ccfa2bd1d8fe5a6f9eed97d2",
    ("memcached", "train"): "8bf4d8db42481a812b25f062fb889f26add3b04123fbdc0449aacc4c0ce06a3e",
    ("memcached", "ref#3"): "9bbb1678b2f73938182bda055a3962f56b5ad62c53c04b238b2f066923d45531",
    ("moses", "ref"): "3a65202e4ddb9850944a8c379298a9d066edcf2a0813df2d49accb6c5f7fdbef",
    ("moses", "train"): "d5b13519a5789ba0365913c2ecf08e35c62c894c7be62d06ae38907e1a3fa866",
    ("moses", "ref#3"): "c512529362aa4a62177a3d851782a13eb84f8d45c0f1cf291a0577e6d6316445",
    ("nab", "ref"): "de4ccb089bcc9b6f01e2457d8006f78f991e3f9e835e4d4b9bd81271dfec3c4d",
    ("nab", "train"): "a0926a81a391b92d441923eaf0348e85102c3ec605aee39e79bea62cbcc04206",
    ("nab", "ref#3"): "c5c309018d3a2ba9d4f24c0b4efc6083c17b5524b74c1852242e1e24501f7cc0",
    ("namd", "ref"): "8e1991e6811cdacca31668d4ead6988b1b0ef5fcd79ab5f2abd0cb0d3aab01cf",
    ("namd", "train"): "db40261e76e96eab2516c6bb73a6895e166f51cf5c5c8eb4fa05b26a08b02e37",
    ("namd", "ref#3"): "9e88815cfbdd34b04c8d86bc30e66dda97ec9f7c514fcba4a228123100a9b630",
    ("omnetpp", "ref"): "59b4c88320ee36b651775687a4003b806c3ac04036bc9662a9515f1a8b5bd84b",
    ("omnetpp", "train"): "24d76dc7299d66cca0638c147e08cf79d1c28a866abeb2d0024876b8452415e0",
    ("omnetpp", "ref#3"): "cbf2cbb616c79a4a798847444e03f67f5a7515ac4578755b47269a51be19d18e",
    ("perlbench", "ref"): "bb19f14d48e0eb725b44dfd1c862f694640691a0ce123d8019a09b7ce8caf90e",
    ("perlbench", "train"): "a8a780ca57b4ca5f49b6df80f9f237d4411bbc026b4100530fab07b2478c207a",
    ("perlbench", "ref#3"): "6c981be36d3f107cd7499a6cd78e6b27fc833db2044a9b9fcb282dbb939a2e33",
    ("pointer_chase", "ref"): "a3422d97b24b8b39ae4929ded920bfbd84a5f6e867a92724c305ec468ab4d225",
    ("pointer_chase", "train"): "ae90ee32853a7d7dc534759f152804ab9aaf2f1df11d19a088d830aa8dbcd839",
    ("pointer_chase", "ref#3"): "b3a5ee0d2003d67c1a662564f463ea67b928077def9743632f9643c84d4bec8e",
    ("xhpcg", "ref"): "60e2f78c3da2d2cb391418b1deeaaedb2aa23924a21ef7d48fdbd8f360eb945d",
    ("xhpcg", "train"): "7e33c04e872189547999d32946a08a6d00f958c120fdf7b644f210fe4e86dac4",
    ("xhpcg", "ref#3"): "fa259db9a52437b4150509049efd8a7c4192f489042bdaf8d5f3f138c0084ce8",
    ("xz", "ref"): "7e83fffa398e44c2d5e3aae53d8481d0f93ab59ca51f4eb855c195daa9f8c77b",
    ("xz", "train"): "6b180cb3eab6618ae9abc000e97840f097e4116b2cc593e2121a7efd5b7dd226",
    ("xz", "ref#3"): "3022fbbdec85abccde84c55a03389f36b1fa3a0a37227046daf9fa93e09c6ca7",
}


def image_digest(memory) -> str:
    """sha256 of ``memory``'s (word, value) pairs sorted by word, as LE int64."""
    flat = np.fromiter(
        chain.from_iterable(memory.items()), dtype=np.int64, count=2 * len(memory)
    )
    pairs = flat.reshape(-1, 2)
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    return hashlib.sha256(pairs.astype("<i8").tobytes()).hexdigest()


def test_every_registered_workload_is_pinned():
    pinned = {name for name, _ in IMAGE_SHA256}
    assert pinned == set(REGISTRY.names())
    assert IMAGE_SHA256_SCALE_1.keys() == IMAGE_SHA256.keys()


@pytest.mark.parametrize("name", REGISTRY.names())
def test_image_matches_pinned_digest(name):
    for variant in ("ref", "train", "ref#3"):
        memory = REGISTRY.build(name, variant=variant, scale=SCALE).memory
        assert image_digest(memory) == IMAGE_SHA256[name, variant], (name, variant)


@pytest.mark.parametrize("name", REGISTRY.names())
def test_image_at_scale_1_matches_pinned_digest(name):
    for variant in ("ref", "train", "ref#3"):
        memory = REGISTRY.build(name, variant=variant, scale=1.0).memory
        assert image_digest(memory) == IMAGE_SHA256_SCALE_1[name, variant], (name, variant)
