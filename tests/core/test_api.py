"""Integration tests for the Tabby facade (the Figure 1 program)."""

import pytest

from repro.core import SinkMethod, SourceCatalog, Tabby
from repro.errors import AnalysisError
from repro.graphdb.storage import load_graph
from repro.jvm.builder import ProgramBuilder
from repro.jvm.jar import JarArchive
from repro.jvm.model import SERIALIZABLE


def figure1_classes():
    pb = ProgramBuilder(jar="demo.jar")
    obj = pb.cls("java.lang.Object", extends=None)
    obj.abstract_method("toString", returns="java.lang.String")
    obj.finish()
    with pb.cls("demo.EvilObjectB", implements=[SERIALIZABLE]) as c:
        c.field("val2", "java.lang.Object")
        with c.method("toString", returns="java.lang.String") as m:
            v = m.get_field(m.this, "val2")
            cmd = m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")
            rt = m.invoke_static(
                "java.lang.Runtime", "getRuntime", returns="java.lang.Runtime"
            )
            m.invoke(rt, "java.lang.Runtime", "exec", [cmd])
            m.ret(cmd)
    with pb.cls("demo.EvilObjectA", implements=[SERIALIZABLE]) as c:
        c.field("val1", "java.lang.Object")
        with c.method("readObject", params=["java.io.ObjectInputStream"]) as m:
            v = m.get_field(m.this, "val1")
            m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")
            m.ret()
    return pb.build()


@pytest.fixture
def tabby():
    return Tabby(sources=SourceCatalog.native()).add_classes(figure1_classes())


class TestEndToEnd:
    def test_no_classes_error(self):
        with pytest.raises(AnalysisError):
            Tabby().build_cpg()

    def test_figure1_chain_found(self, tabby):
        chains = tabby.find_gadget_chains()
        assert len(chains) == 1
        (chain,) = chains
        names = [s.qualified for s in chain.steps]
        assert names == [
            "demo.EvilObjectA.readObject",
            "java.lang.Object.toString",
            "demo.EvilObjectB.toString",
            "java.lang.Runtime.exec",
        ]
        assert chain.sink_category == "EXEC"

    def test_render_matches_table_i_style(self, tabby):
        (chain,) = tabby.find_gadget_chains()
        text = chain.render()
        assert "(source)demo.EvilObjectA.readObject()" in text
        assert "(sink)java.lang.Runtime.exec()" in text

    def test_cpg_cached_until_input_changes(self, tabby):
        first = tabby.build_cpg()
        assert tabby.build_cpg() is first
        tabby.add_classes([])
        # adding (even zero) classes invalidates the cache
        assert tabby.build_cpg() is not first

    def test_add_jar(self):
        jar = JarArchive("demo", figure1_classes())
        t = Tabby(sources=SourceCatalog.native()).add_jar(jar)
        assert t.class_count == 3
        assert len(t.find_gadget_chains()) == 1

    def test_load_classpath(self, tmp_path):
        from repro.jvm.jar import write_jar

        write_jar(JarArchive("demo", figure1_classes()), str(tmp_path / "demo.jar"))
        t = Tabby(sources=SourceCatalog.native()).load_classpath([str(tmp_path)])
        assert len(t.find_gadget_chains()) == 1

    def test_custom_sink(self):
        pb = ProgramBuilder()
        with pb.cls("t.C", implements=[SERIALIZABLE]) as c:
            c.field("payload", "java.lang.String")
            with c.method("readObject", params=["java.io.ObjectInputStream"]) as m:
                v = m.get_field(m.this, "payload")
                lg = m.new("com.corp.Audit")
                m.invoke(lg, "com.corp.Audit", "logRaw", [v])
        t = Tabby(sources=SourceCatalog.native()).add_classes(pb.build())
        assert t.find_gadget_chains() == []
        t2 = (
            Tabby(sources=SourceCatalog.native())
            .add_classes(pb.build())
            .add_sinks([SinkMethod("com.corp.Audit", "logRaw", "CUSTOM", (1,))])
        )
        chains = t2.find_gadget_chains()
        assert len(chains) == 1
        assert chains[0].sink_category == "CUSTOM"

    def test_save_and_requery(self, tabby, tmp_path):
        path = str(tmp_path / "cpg.json")
        tabby.save_cpg(path)
        graph = load_graph(path)
        assert graph.node_count == tabby.cpg.graph.node_count

    def test_query_over_cpg(self, tabby):
        res = tabby.query(
            "MATCH (m:Method {IS_SINK: true}) RETURN m.CLASSNAME AS c, m.NAME AS n"
        )
        assert res.single() == {"c": "java.lang.Runtime", "n": "exec"}

    def test_query_chain_via_cypher(self, tabby):
        """RQ4 workflow: the chain is re-derivable with a plain query."""
        res = tabby.query(
            "MATCH (src:Method {IS_SOURCE: true})-[:CALL|ALIAS*1..6]-(snk:Method {IS_SINK: true}) "
            "RETURN DISTINCT src.CLASSNAME AS c"
        )
        assert "demo.EvilObjectA" in res.values("c")

    def test_max_depth_limits_results(self, tabby):
        assert tabby.find_gadget_chains(max_depth=2) == []
        assert len(tabby.find_gadget_chains(max_depth=3)) == 1


class TestPersistenceFormats:
    """save_cpg format plumbing and the Tabby.load_cpg warm start."""

    def chain_steps(self, chains):
        return [[s.qualified for s in c.steps] for c in chains]

    @pytest.mark.parametrize("format", ["v3", "json"])
    def test_load_cpg_reproduces_chains(self, tabby, tmp_path, format):
        path = str(tmp_path / "saved.cpg")
        cold = tabby.find_gadget_chains()
        tabby.save_cpg(path, format=format)
        warm = Tabby.load_cpg(path, sources=SourceCatalog.native())
        assert self.chain_steps(warm.find_gadget_chains()) == self.chain_steps(cold)

    def test_load_cpg_reproduces_queries(self, tabby, tmp_path):
        path = str(tmp_path / "saved.cpg")
        cold = tabby.query(
            "MATCH (m:Method {IS_SINK: true}) RETURN m.CLASSNAME AS c, m.NAME AS n"
        )
        tabby.save_cpg(path)
        warm = Tabby.load_cpg(path)
        assert warm.query(
            "MATCH (m:Method {IS_SINK: true}) RETURN m.CLASSNAME AS c, m.NAME AS n"
        ).rows == cold.rows

    def test_load_cpg_graph_fingerprint_identical(self, tabby, tmp_path):
        from repro.graphdb.snapshot import graph_fingerprint

        path = str(tmp_path / "saved.cpg")
        tabby.save_cpg(path, format="v3")
        warm = Tabby.load_cpg(path, mmap=False)
        assert graph_fingerprint(warm.cpg.graph) == graph_fingerprint(
            tabby.cpg.graph
        )

    def test_load_cpg_statistics_populated(self, tabby, tmp_path):
        path = str(tmp_path / "saved.cpg")
        tabby.save_cpg(path)
        warm = Tabby.load_cpg(path)
        stats = warm.cpg.statistics
        assert stats.method_node_count > 0
        assert stats.relationship_edge_count == tabby.cpg.graph.relationship_count

    def test_default_format_by_suffix(self, tabby, tmp_path):
        from repro.graphdb.snapshot_v3 import SNAPSHOT_MAGIC

        binary = tmp_path / "saved.cpg"
        jsonish = tmp_path / "saved.cpg.json"
        tabby.save_cpg(str(binary))
        tabby.save_cpg(str(jsonish))
        assert binary.read_bytes()[:8] == SNAPSHOT_MAGIC
        assert jsonish.read_bytes()[:1] == b"{"
