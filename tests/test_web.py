"""Web-corpus URL operators (pipelines/web.py): canonicalization,
registrable domains, per-domain caps."""

import hashlib

import pandas as pd
import pyarrow as pa
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
    canonical_urls,
    cap_per_domain,
    domain_counts,
    registrable_domains,
    url_hosts,
)


def canon1(url: str) -> str:
    return canonical_urls(pa.array([url]))[0].as_py()


class TestCanonicalUrls:
    @pytest.mark.parametrize("raw,want", [
        # scheme + host lowercased, path case preserved
        ("HTTPS://WWW.Example.COM/Path/Up", "https://www.example.com/Path/Up"),
        # default ports dropped per scheme
        ("https://a.com:443/x", "https://a.com/x"),
        ("http://a.com:80/x", "http://a.com/x"),
        # non-default / cross-scheme ports kept
        ("https://a.com:8443/x", "https://a.com:8443/x"),
        ("http://a.com:443/x", "http://a.com:443/x"),
        # userinfo stripped
        ("https://user:pw@a.com/x", "https://a.com/x"),
        # fragment dropped
        ("https://a.com/x#sec", "https://a.com/x"),
        # tracking params dropped wherever they sit; order of the rest kept
        ("https://a.com/x?utm_source=t&id=1", "https://a.com/x?id=1"),
        ("https://a.com/x?id=1&utm_medium=m&b=2", "https://a.com/x?id=1&b=2"),
        ("https://a.com/x?gclid=g", "https://a.com/x"),
        ("https://a.com/x?fbclid=f&ref=r&z=9", "https://a.com/x?z=9"),
        # empty query artifacts cleaned
        ("https://a.com/x?utm_a=1&utm_b=2", "https://a.com/x"),
        # already-canonical urls are fixed points
        ("https://a.com/x?id=1", "https://a.com/x?id=1"),
        # non-URLs pass through untouched
        ("not a url", "not a url"),
        ("ftp://Mixed.Case/f", "ftp://mixed.case/f"),
    ])
    def test_rules(self, raw, want):
        assert canon1(raw) == want

    def test_idempotent(self):
        urls = pa.array([
            "HTTPS://U@B.Com:443/p?utm_x=1&q=2#f",
            "http://x.co.uk:80/",
        ])
        once = canonical_urls(urls)
        twice = canonical_urls(once)
        assert once.to_pylist() == twice.to_pylist()

    def test_null_propagates(self):
        out = canonical_urls(pa.array(["https://a.com/x", None]))
        assert out[1].as_py() is None


class TestDomains:
    @pytest.mark.parametrize("host,want", [
        ("www.example.com", "example.com"),
        ("example.com", "example.com"),
        ("a.b.c.example.com", "example.com"),
        ("news.bbc.co.uk", "bbc.co.uk"),
        ("bbc.co.uk", "bbc.co.uk"),
        ("shop.foo.com.au", "foo.com.au"),
        ("localhost", "localhost"),  # no dot → passthrough
    ])
    def test_registrable(self, host, want):
        assert registrable_domains(pa.array([host]))[0].as_py() == want

    def test_url_hosts(self):
        out = url_hosts(pa.array([
            "https://User@WWW.A.com:8080/x", "no-scheme", None]))
        assert out.to_pylist() == ["www.a.com", None, None]


def _messy(n=120):
    rows = []
    for i in range(n):
        dom = f"site{i % 5}.{'co.uk' if i % 2 else 'com'}"
        rows.append({"doc_id": i,
                     "url": f"https://{'www.' if i % 3 else ''}{dom}/d/{i}"})
    return rows


class TestDistributed:
    def test_domain_counts(self, ray_session):
        import ray.data

        ds = ray.data.from_items(_messy()).repartition(7)
        got = {r["domain"]: r["n_docs"]
               for r in domain_counts(ds).take_all()}
        want = pd.DataFrame(_messy())
        want["domain"] = want.url.str.extract(r"(site\d\.(?:co\.uk|com))")
        assert got == want.groupby("domain").size().to_dict()

    def test_cap_matches_pandas_and_partition_independent(self, ray_session,
                                                          fixed_partitions):
        import ray.data

        def local_cap(rows, k):
            df = pd.DataFrame(rows)
            df["domain"] = df.url.str.extract(r"(site\d\.(?:co\.uk|com))")
            df["rank"] = df.url.map(
                lambda u: hashlib.md5(u.encode()).hexdigest())
            df = df.sort_values(["domain", "rank", "url"])
            return set(df.groupby("domain").head(k).doc_id)

        want = local_cap(_messy(), 4)
        for parts in (1, 5):
            fixed_partitions(parts)
            ds = ray.data.from_items(_messy()).repartition(parts)
            got = {r["doc_id"]
                   for r in cap_per_domain(ds, 4).take_all()}
            assert got == want

    def test_cap_noop_when_groups_small(self, ray_session):
        import ray.data

        ds = ray.data.from_items(_messy(9))  # ≤2 docs per domain
        assert cap_per_domain(ds, 3).count() == 9


class TestLinkGraph:
    def test_extract_links_rules(self):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
            extract_links,
        )

        html = (b'<a href="https://A.com/x">1</a>'
                b"<a href='/rel/p'>2</a>"
                b'<a href="#top">3</a><a href="mailto:a@b">4</a>'
                b'<a href="JavaScript:void(0)">5</a>'
                b'<a class="z" href="sub/page">6</a>'
                b'<a href="https://A.com/x">dup kept</a>')
        got = extract_links(html, "https://www.base.co.uk/d/doc-1")
        assert got == [
            "https://A.com/x",
            "https://www.base.co.uk/rel/p",
            "https://www.base.co.uk/d/sub/page",
            "https://A.com/x",
        ]

    def test_host_link_graph(self, ray_session):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            host_link_graph,
        )

        pages = ray.data.from_items([
            {"url": "https://www.a.com/p1",
             "html": b'<a href="https://b.co.uk/x">1</a>'
                     b'<a href="/p2">rel</a>'},
            {"url": "https://sub.a.com/p2",
             "html": b'<a href="https://b.co.uk/y">1</a>'
                     b'<a href="https://b.co.uk/z">2</a>'},
            {"url": "https://b.co.uk/x", "html": b"<p>no links</p>"},
        ]).repartition(3)
        got = {(r["src_domain"], r["dst_domain"]): r["n_links"]
               for r in host_link_graph(pages).take_all()}
        assert got == {
            ("a.com", "b.co.uk"): 3,   # www + sub collapse to a.com
            ("a.com", "a.com"): 1,     # relative link → self-domain edge
        }

    def test_pagerank_composition(self, ray_session):
        """host graph feeds the existing weighted pagerank; determinism
        and mass sanity on a fixed 2-node graph (r_a=0.15+0.85*r_b …
        fixed point 1.0 each at symmetric weights)."""
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
            pagerank,
        )

        g = ray.data.from_items([
            {"src_domain": "a.com", "dst_domain": "b.com", "n_links": 2},
            {"src_domain": "b.com", "dst_domain": "a.com", "n_links": 2},
        ])
        pr = {r["node"]: r["pr"]
              for r in pagerank(g, src_col="src_domain",
                                dst_col="dst_domain",
                                weight_col="n_links", iters=5).take_all()}
        assert pr == {"a.com": 1.0, "b.com": 1.0}


class TestRecrawlDedup:
    def test_latest_capture_survives(self, ray_session, fixed_partitions):
        import datetime

        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            dedup_recrawls,
        )

        t0 = datetime.datetime(2025, 1, 1)
        rows = [
            # three captures of one resource under different decorations
            {"url": "HTTPS://a.com:443/p?utm_x=1&id=9",
             "warc_ts": t0, "v": "old"},
            {"url": "https://a.com/p?id=9#frag",
             "warc_ts": t0 + datetime.timedelta(days=2), "v": "newest"},
            {"url": "https://a.com/p?id=9&utm_y=2",
             "warc_ts": t0 + datetime.timedelta(days=1), "v": "mid"},
            # an unrelated page
            {"url": "https://b.com/q", "warc_ts": t0, "v": "only"},
        ]
        for parts in (1, 4):
            fixed_partitions(parts)
            ds = ray.data.from_items(rows).repartition(parts)
            got = {r["canonical_url"]: r["v"]
                   for r in dedup_recrawls(ds).take_all()}
            assert got == {"https://a.com/p?id=9": "newest",
                           "https://b.com/q": "only"}

    def test_ts_tie_breaks_by_raw_url(self, ray_session):
        import datetime

        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            dedup_recrawls,
        )

        t0 = datetime.datetime(2025, 1, 1)
        rows = [
            {"url": "https://a.com/p?id=1&utm_b=2", "warc_ts": t0},
            {"url": "https://a.com/p?id=1&utm_a=1", "warc_ts": t0},
        ]
        out = dedup_recrawls(ray.data.from_items(rows)).take_all()
        assert len(out) == 1
        assert out[0]["url"] == "https://a.com/p?id=1&utm_a=1"


class TestCrawlDiff:
    def test_all_statuses(self, ray_session, fixed_partitions):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            crawl_diff,
        )

        old = ray.data.from_items([
            # same canonical url re-captured under different decorations
            {"url": "https://a.com/keep?utm_x=1", "text": "same"},
            {"url": "https://a.com/edit#frag", "text": "before"},
            {"url": "https://a.com/gone", "text": "bye"},
        ])
        new = ray.data.from_items([
            {"url": "HTTPS://a.com:443/keep", "text": "same"},
            {"url": "https://a.com/edit", "text": "after"},
            {"url": "https://a.com/fresh", "text": "hi"},
        ])
        for parts in (1, 3):
            fixed_partitions(parts)
            got = {r["canonical_url"]: r["status"]
                   for r in crawl_diff(old.repartition(parts),
                                       new.repartition(parts)).take_all()}
            assert got == {
                "https://a.com/keep": "unchanged",
                "https://a.com/edit": "changed",
                "https://a.com/gone": "removed",
                "https://a.com/fresh": "added",
            }


def test_ip_hosts_pass_through():
    out = registrable_domains(pa.array(["192.168.0.1", "10.0.0.2"]))
    assert out.to_pylist() == ["192.168.0.1", "10.0.0.2"]


class TestAnchorTexts:
    def test_extract_anchor_texts_unit(self):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
            extract_anchor_texts,
        )

        html = (
            b'<html><body>'
            b'<a href="https://a.com/x"><b>Bold</b>\n  link</a>'
            b"<a href='/rel' class=nav>Rel</a>"
            b'<a href="https://b.com/img"><img src=i.png></a>'
            b'<a href="mailto:x@y">noise</a>'
            b'<a href="#top">frag</a>'
            b'<a href="https://c.com/open">never closed'
            b"</body></html>"
        )
        got = extract_anchor_texts(html, "https://site.com/base")
        assert got == [
            ("https://a.com/x", "Bold link"),       # tags stripped, ws collapsed
            ("https://site.com/rel", "Rel"),        # relative resolved
            ("https://b.com/img", ""),              # image-only anchor
        ]

    def test_anchor_text_counts_aggregates(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            anchor_text_counts,
        )

        page = (
            b'<a href="https://t.com/1">Home</a>'
            b'<a href="https://t.com/2">Home</a>'
            b'<a href="https://www.t.com/3">Docs</a>'
        )
        pages = ray.data.from_items([
            {"url": "https://s.com/a", "html": page},
            {"url": "https://s.com/b", "html": page},
        ])
        got = {(r["dst_domain"], r["anchor"]): r["n_links"]
               for r in anchor_text_counts(pages).take_all()}
        # www. strips to the registrable domain; counts sum across pages
        assert got == {("t.com", "Home"): 4, ("t.com", "Docs"): 2}


class TestUrlBlockFilter:
    def test_flags_and_keep(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            url_block_filter,
        )

        pages = ray.data.from_items([
            {"url": "https://good.com/article/1"},
            {"url": "https://bad.com/article/2"},          # domain block
            {"url": "https://good.com/CASINO-night"},      # word, cased
            {"url": "https://www.bad.com/casino"},         # both
            {"url": "https://good.com/viagra/viagra"},     # word twice
        ])
        out = url_block_filter(
            pages, blocked_domains=("bad.com",),
            blocked_words=("casino", "viagra"),
        ).take_all()
        rows = {r["url"]: r for r in out}
        assert rows["https://good.com/article/1"]["keep"] == 1
        assert rows["https://bad.com/article/2"]["blocked_domain"] == 1
        assert rows["https://good.com/CASINO-night"]["n_blockwords"] == 1
        # www. subdomain still maps to the blocked registrable domain
        assert rows["https://www.bad.com/casino"]["blocked_domain"] == 1
        assert rows["https://www.bad.com/casino"]["n_blockwords"] == 1
        assert rows["https://good.com/viagra/viagra"]["n_blockwords"] == 2
        assert sum(r["keep"] for r in out) == 1

    def test_empty_lists_keep_everything(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            url_block_filter,
        )

        pages = ray.data.from_items(
            [{"url": f"https://s{i}.com/x"} for i in range(5)])
        out = url_block_filter(pages).take_all()
        assert all(r["keep"] == 1 for r in out)


class TestPageMetadata:
    def test_extract_metadata_unit(self):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
            extract_metadata,
        )

        html = (
            b"<html><head>"
            b"<title>My <i>Fancy</i>\n  Page &amp; Co</title>"
            b'<meta content="Desc first" name="description">'
            b'<link rel="canonical" href="https://c.com/x ">'
            b'<meta property="og:title" content="OG &quot;T&quot;">'
            b"</head><body></body></html>"
        )
        m = extract_metadata(html)
        assert m["title"] == "My Fancy Page & Co"
        assert m["meta_description"] == "Desc first"
        assert m["canonical_url"] == "https://c.com/x"
        assert m["og_title"] == 'OG "T"'

    def test_absent_fields_are_none(self):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
            extract_metadata,
        )

        m = extract_metadata(b"<html><body>no head</body></html>")
        assert m == {"title": None, "meta_description": None,
                     "canonical_url": None, "og_title": None}

    def test_first_occurrence_wins(self):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
            extract_metadata,
        )

        html = b"<title>First</title><title>Second</title>"
        assert extract_metadata(html)["title"] == "First"

    def test_page_metadata_distributed(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            page_metadata,
        )

        pages = ray.data.from_items([
            {"url": "https://a.com/1",
             "html": b"<title>T1</title>"},
            {"url": "https://a.com/2", "html": b"<p>no meta</p>"},
        ])
        out = {r["url"]: r for r in page_metadata(pages).take_all()}
        assert out["https://a.com/1"]["title"] == "T1"
        assert out["https://a.com/2"]["title"] is None


class TestCrawlFrontier:
    def test_discovered_not_fetched(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            crawl_frontier,
        )

        pages = ray.data.from_items([
            # a.com/1 links to crawled a.com/2 and uncrawled new.com/x
            {"url": "https://a.com/1",
             "html": (b'<a href="https://a.com/2">in</a>'
                      b'<a href="https://new.com/x?utm_source=s">n</a>')},
            # b.com/2 — crawled under a decoration; links to new.com/x
            # again from a second domain, and to itself (crawled)
            {"url": "https://b.com/2",
             "html": (b'<a href="https://new.com/x">n</a>'
                      b'<a href="HTTPS://b.com:443/2">self</a>')},
            {"url": "https://a.com/2", "html": b""},
        ])
        out = {r["frontier_url"]: r
               for r in crawl_frontier(pages)
               .take_all()}
        # only the never-fetched target survives; the tracking-param
        # variant collapses onto the clean canonical
        assert set(out) == {"https://new.com/x"}
        assert out["https://new.com/x"]["n_links"] == 2
        assert out["https://new.com/x"]["n_src_domains"] == 2

    def test_empty_when_closed_world(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            crawl_frontier,
        )

        pages = ray.data.from_items([
            {"url": "https://a.com/1",
             "html": b'<a href="https://a.com/2">x</a>'},
            {"url": "https://a.com/2",
             "html": b'<a href="https://a.com/1">y</a>'},
        ])
        assert crawl_frontier(pages).count() == 0


class TestSitemaps:
    def test_parse_sitemap_unit(self):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
            parse_sitemap,
        )

        xml = (b'<?xml version="1.0"?><urlset>'
               b"<url><loc> https://a.com/x?a=1&amp;b=2 </loc>"
               b"<lastmod>2025-03-01</lastmod>"
               b"<priority>0.8</priority></url>"
               b"<url><lastmod>2024-01-01</lastmod></url>"  # no loc
               b"<url><loc>https://a.com/y</loc>"
               b"<priority>oops</priority></url>"
               b"</urlset>")
        rows = parse_sitemap(xml)
        assert rows == [
            {"kind": "url", "loc": "https://a.com/x?a=1&b=2",
             "lastmod": "2025-03-01", "priority": 0.8},
            {"kind": "url", "loc": "https://a.com/y",
             "lastmod": None, "priority": None},
        ]

    def test_parse_sitemapindex(self):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
            parse_sitemap,
        )

        xml = (b"<sitemapindex><sitemap>"
               b"<loc>https://a.com/s1.xml</loc></sitemap>"
               b"</sitemapindex>")
        rows = parse_sitemap(xml)
        assert rows == [{"kind": "sitemap",
                         "loc": "https://a.com/s1.xml",
                         "lastmod": None, "priority": None}]

    def test_sitemap_urls_distributed(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            sitemap_urls,
        )

        maps = ray.data.from_items([
            {"url": "https://a.com/sm.xml",
             "xml": (b"<urlset><url><loc>https://a.com/1</loc></url>"
                     b"<url><loc>https://a.com/2</loc></url></urlset>")},
        ])
        out = sitemap_urls(maps).take_all()
        assert sorted(r["loc"] for r in out) == [
            "https://a.com/1", "https://a.com/2"]
        assert all(r["sitemap_url"] == "https://a.com/sm.xml"
                   for r in out)


class TestMirrorPaths:
    def test_mirrored_path_found_unique_ignored(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            mirror_paths,
        )

        pages = ray.data.from_items(
            # /m served by 3 domains (one under a tracking decoration
            # and a www prefix that must collapse), /solo by one
            [{"url": "https://a.com/m?utm_source=x"},
             {"url": "https://www.b.com/m"},
             {"url": "https://c.com/m"},
             {"url": "https://a.com/solo"},
             {"url": "https://a.com/m"}]  # same domain again: 1 domain
        )
        out = {r["path"]: r
               for r in mirror_paths(pages, min_domains=3).take_all()}
        assert set(out) == {"/m"}
        assert out["/m"]["n_domains"] == 3
        assert out["/m"]["n_pages"] == 4

    def test_floor_excludes(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            mirror_paths,
        )

        pages = ray.data.from_items([
            {"url": "https://a.com/x"}, {"url": "https://b.com/x"},
        ])
        assert mirror_paths(pages, min_domains=3).count() == 0


class TestSitemapProperty:
    def test_build_parse_roundtrip(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from xml.sax.saxutils import escape

        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
            parse_sitemap,
        )

        loc_st = st.text(
            alphabet=st.sampled_from(list("abz09/-_.&?=")),
            min_size=1, max_size=20,
        ).map(lambda s: "https://h.com/" + s)

        @settings(max_examples=100, deadline=None)
        @given(st.lists(loc_st, min_size=1, max_size=6))
        def check(locs):
            xml = ("<urlset>" + "".join(
                f"<url><loc>{escape(u)}</loc></url>" for u in locs)
                + "</urlset>").encode()
            rows = parse_sitemap(xml)
            assert [r["loc"] for r in rows] == locs

        check()


class TestRecrawlDedupWindowed:
    def test_within_window_collapses_across_survives(self, ray_session,
                                                     fixed_partitions):
        import datetime

        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            dedup_recrawls_windowed,
        )

        # pick a base far from a 30-day epoch-bucket edge so the
        # +1-day re-capture provably shares the window
        t0 = datetime.datetime(2025, 1, 10)
        rows = [
            {"url": "HTTPS://a.com:443/p?utm_x=1&id=9",
             "warc_ts": t0, "v": "old"},
            {"url": "https://a.com/p?id=9#frag",
             "warc_ts": t0 + datetime.timedelta(days=1), "v": "newer"},
            # 40 days later: a different window, must also survive
            {"url": "https://a.com/p?id=9&utm_y=2",
             "warc_ts": t0 + datetime.timedelta(days=40), "v": "next_win"},
            {"url": "https://b.com/q", "warc_ts": t0, "v": "only"},
        ]
        for parts in (1, 4):
            fixed_partitions(parts)
            ds = ray.data.from_items(rows).repartition(parts)
            out = dedup_recrawls_windowed(
                ds, window_days=30).take_all()
            got = sorted((r["canonical_url"], r["v"]) for r in out)
            assert got == [
                ("https://a.com/p?id=9", "newer"),
                ("https://a.com/p?id=9", "next_win"),
                ("https://b.com/q", "only"),
            ], parts
            # the two a.com survivors sit in distinct windows
            wins = {r["v"]: r["window"] for r in out
                    if r["canonical_url"] == "https://a.com/p?id=9"}
            assert wins["newer"] != wins["next_win"]

    def test_tie_breaks_by_raw_url_within_window(self, ray_session):
        import datetime

        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            dedup_recrawls_windowed,
        )

        t0 = datetime.datetime(2025, 1, 10)
        rows = [
            {"url": "https://a.com/p?id=1&utm_b=2", "warc_ts": t0},
            {"url": "https://a.com/p?id=1&utm_a=1", "warc_ts": t0},
        ]
        out = dedup_recrawls_windowed(
            ray.data.from_items(rows)).take_all()
        assert len(out) == 1
        assert out[0]["url"] == "https://a.com/p?id=1&utm_a=1"
