"""Emulated traces are pinned instruction for instruction.

``SimStats`` digests and the bench goldens see a trace only through what
the timing model reads of it. This test pins every dynamic instruction
the emulator records: the sha256 over each ``DynInst``'s ``(pc, addr,
taken, reg_srcs, mem_src)`` in trace order, then ``final_regs``,
``halted`` and the ``exec_counts`` items in insertion order. It covers
every registered workload's train, ref and ``ref#3`` input at scale 0.1,
plus the generated workload the CI smoke runs. An emulator change that
moves an address, drops a producer link or reorders ``exec_counts``
fails here even if no simulated result changes. The error cases pin the
exception type and the instruction it names.
"""

import hashlib

import pytest

from repro.isa import Asm, EmulationError, EmulationLimitError, execute
from repro.workloads import REGISTRY

SCALE = 0.1

#: The generated workload ``workgen-smoke`` emits, measures and grids.
GEN_NAME = "gen:pcd4,mlp2,ent0.50,ws256,sl3,lf0.30#0"

TRACE_SHA256 = {
    ("bwaves", "train"): "64c0c95247cd11446eb5a73361996a0112fa241a2a6e49abd34747e3f508fe12",
    ("bwaves", "ref"): "a3a71fc86fdf9f99ba6207b71750c907a955fb4ba7e0bb21cb207831ab03adc5",
    ("bwaves", "ref#3"): "94705fec2800a049cb3256d18f4eee34b5de36f4f7fc9e6dc08ee590c1c59daf",
    ("cactus", "train"): "63cd86cd9b755b6b2301eb8d4399356de425bb06cdb1363a248b025c3dd22cbd",
    ("cactus", "ref"): "0df943cf86f64d314229385d8dedd50712a0893f8398d3832eaef0b412907d05",
    ("cactus", "ref#3"): "55582c19e3b5fe997e248751afa5857bf293d6b2eb1dc3b2f732a173290d562e",
    ("deepsjeng", "train"): "83270ec7316432757bacb8603d9082a86274d43cb5b47be5644b2cc29528bed1",
    ("deepsjeng", "ref"): "7b1e921e5fd8059c104bd8c1e726433ec0c5491b223a568a85bfd39c995d08ef",
    ("deepsjeng", "ref#3"): "1d5de7faefbd68237fb076b7760b5a1907507379604d610fa6f34a514842eed4",
    ("div_chain", "train"): "f437c24e8e232553cc0446ccd917d66423eff935ba2dba942734b879c0b49f09",
    ("div_chain", "ref"): "2c24aab6aabc1514ad00cb8218d006313e1b25eef68ed613d68f4ce07d6e447d",
    ("div_chain", "ref#3"): "2c24aab6aabc1514ad00cb8218d006313e1b25eef68ed613d68f4ce07d6e447d",
    ("fotonik", "train"): "c642a752935aeb109447ace34b74d7959561c844ddae6397436dea532c7bc9ab",
    ("fotonik", "ref"): "190bc58fe47413db9e5fc4526a37cedd2cecc56afbcbd79fa2c9c89e94f03128",
    ("fotonik", "ref#3"): "5f95cc8a85346c7ea6482688890e47ceb5c5749f634fd3246aa763e57008336b",
    ("gcc", "train"): "8a326668a29b60c0fdf35f857c977daf0f6bf8eeba54d9c1e1fb4d6514a15b81",
    ("gcc", "ref"): "9065b7e44faa3f588e05179e59331906a756895ee6fa2607237049725edd592e",
    ("gcc", "ref#3"): "e4b23274cc277999d2f7e20ee0878a754c91391672089dcf9286b5dd50044f9e",
    ("img_dnn", "train"): "eab811d7cee2115c107cd22bc613c7ce6405a31ce6e50801fac01378e32e127d",
    ("img_dnn", "ref"): "09653522dfce1b78a4f05b153c645459a28dea372d29cbc8da4eb8ca4340d078",
    ("img_dnn", "ref#3"): "ad548edbfc5f596305cb64197e6f37a7f915a66fde578104f92711f9ec166bd2",
    ("lbm", "train"): "1df91d6f1d7f161537110a33d72b058d9741480ea4310f0584943582bb75517d",
    ("lbm", "ref"): "3c24708acc8419cae1660a5132c1b1d1cc03543b2de88dc928f5039cfeb57db2",
    ("lbm", "ref#3"): "c8180e7a1c7848206b30a22a3c3f0a4bd9738d43ea3c1ce9b8735dab93c72c4b",
    ("mcf", "train"): "a8a114d5440a44db4791eae115c83548073b9657834b849850b6479fb7370167",
    ("mcf", "ref"): "047e8011cf778cdcbbd008d9e522931636c01b2828e28a770714b80eefbc83aa",
    ("mcf", "ref#3"): "bb74b2ecfd880b6d62b5aca7159f4c5e4b8a2831a64c39d4dee86bb19a5c2570",
    ("memcached", "train"): "1015bc8b5e9d006a3f5969db16cdeed5b3f5bfbdb9dbb42924d4f440d5f966b9",
    ("memcached", "ref"): "021001fd915ea496390f8567675390b95b258a510e254aa9e642810028ea1675",
    ("memcached", "ref#3"): "5c7f64c09ce8163591dc4874835ce18701f69ffd27c8952b0f6df7a9c788fe70",
    ("moses", "train"): "4d5fcdae84fa7f42790dfa0733b4a4206ebbe534c61eb00527a56f232d60dacf",
    ("moses", "ref"): "e3ac4ad9d4224128a94c5f21aded2e9de31fa85c829d10cef69ca8e49fea6b9e",
    ("moses", "ref#3"): "2769dfb27d6bfc5fd2388fd5ee927af0e697cfae16cca8f67c24589af548e694",
    ("nab", "train"): "8659ebebdbd3a5b74f8aa6e102740b1155d85b5bd64d7fcd41972ae8c9db79b9",
    ("nab", "ref"): "a798da845b794eb27140655659665f498f425305ace74ab4c96b319a23339ee8",
    ("nab", "ref#3"): "8aaf2895b11d4c594c78317e7324c52e70cb08b3c4f7ebc67047b30caf323fff",
    ("namd", "train"): "4596c43a9fe6140f421e8c741d78fea5e7a5540bb98a34189edacd71c1a44d1e",
    ("namd", "ref"): "fa3a967eb3866461a4dc3d5ab86a7463c519ac35d8b593c7165b1598fbdb04a8",
    ("namd", "ref#3"): "851def6b20b576c21f7d0650e7a86e5df1b31a88594c4803840523ded72d086e",
    ("omnetpp", "train"): "e2a5cd10f1e5f783f249ad3e16783768da3508e595a807712ad3f4db0c0c30c2",
    ("omnetpp", "ref"): "8e7c70516162dd435fed3c2c6dc237965d87a4142b907f365cf97ff41b2d2a79",
    ("omnetpp", "ref#3"): "e062da3013e9c474413b9bc003496d6330e86557a56b35c15624484144ed7348",
    ("perlbench", "train"): "e1572e4712425cc27095fe9f71efbcf92593972d527c0f480829d2362f6923e6",
    ("perlbench", "ref"): "177b4145f6906be7602bc4ec570ada6aedd406c4ecd537c34ee6e364c5c7eb11",
    ("perlbench", "ref#3"): "9e5febf6998408717a638ddc9d789000049a6bcc3814754ef0b9b1ffa9a5b999",
    ("pointer_chase", "train"): "c10a90fb4108ffef26bfab32225014fbb03c35d6b2859c0f2449d0adea1d53e5",
    ("pointer_chase", "ref"): "feca86a445a6290b4e88e3f3010019f346d3c7796f08886612c2e073dc5785f9",
    ("pointer_chase", "ref#3"): "05d9e456f6b5a78982c3d6a7b8ddca65cd27526d233b8d47628b10cf083070fa",
    ("xhpcg", "train"): "6ef0758474bbc4b9962eca6b122ff5e9fcd17b8b20c7fcde69d5d5509300d1c7",
    ("xhpcg", "ref"): "5be7e27e747bb9a97fdad7832f523d5f7c7c0dc0b609e3ced0b7d61cf5d8d7aa",
    ("xhpcg", "ref#3"): "9c7af2df615c872eca229caa1d470355fe68fa1e5adae76dfabc18c438609da9",
    ("xz", "train"): "75d6e321f111b8d08b45e52f97de09f02793450b69df641ae58d4aff1eaa8104",
    ("xz", "ref"): "5b537bc3d9d1e7e38017f359a3e254231af6123b669ce873c043aebe6232e668",
    ("xz", "ref#3"): "c56bebf93f12d77944b8eda5e33c3243c38e5fd23c283af7e5aec4c600d2cc38",
    (GEN_NAME, "train"): "172583a4ce3111fb0854eb6ffa37e2e6e876a340cb3770f1ce34fde2efa22882",
    (GEN_NAME, "ref"): "6235f52acc4885951887f9cd54edea7a5e59a3c4ed1827277deb6aea3445ad59",
    (GEN_NAME, "ref#3"): "e81ec5fed2a65c2c6ebba9c3d7f37160af15c9447fd5e1d650cc0973ca88f3c4",
}


def trace_digest(trace) -> str:
    """sha256 over the trace's dynamic instructions and final state."""
    h = hashlib.sha256()
    h.update(repr([(d.pc, d.addr, d.taken, d.reg_srcs, d.mem_src)
                   for d in trace.insts]).encode())
    h.update(repr(trace.final_regs).encode())
    h.update(repr(trace.halted).encode())
    h.update(repr(list(trace.exec_counts.items())).encode())
    return h.hexdigest()


def test_every_registered_workload_is_pinned():
    pinned = {name for name, _ in TRACE_SHA256}
    assert pinned == set(REGISTRY.names()) | {GEN_NAME}


@pytest.mark.parametrize("name", REGISTRY.names() + [GEN_NAME])
def test_trace_matches_pinned_digest(name):
    for variant in ("train", "ref", "ref#3"):
        trace = REGISTRY.build(name, variant=variant, scale=SCALE).trace()
        assert trace_digest(trace) == TRACE_SHA256[name, variant], (name, variant)


def test_pc_out_of_range_names_the_pc():
    a = Asm()
    a.jmp("tail")
    a.halt()
    a.label("tail")
    a.nop()
    with pytest.raises(EmulationError) as info:
        execute(a.build())
    assert type(info.value) is EmulationError
    assert str(info.value) == "PC out of range: 3"


def test_ret_on_empty_stack_names_the_pc():
    a = Asm()
    a.call("f")
    a.ret()
    a.halt()
    a.label("f")
    a.ret()
    with pytest.raises(EmulationError) as info:
        execute(a.build())
    assert type(info.value) is EmulationError
    assert str(info.value) == "RET with empty call stack at pc=1"


def test_instruction_limit_names_the_pc():
    a = Asm()
    a.movi("r1", 0)
    a.label("loop")
    a.addi("r1", "r1", 1)
    a.nop()
    a.jmp("loop")
    a.halt()
    with pytest.raises(EmulationLimitError) as info:
        execute(a.build(), max_insts=101)
    assert str(info.value) == "dynamic instruction limit (101) exceeded at pc=2"
