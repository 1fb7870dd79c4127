"""Web-corpus URL operators: canonicalization, registrable domains,
per-domain caps.

The curation steps every published web-text pipeline applies before
anything touches document CONTENT (CCNet, C4, RefinedWeb all document
them): canonicalize URLs so re-crawls of the same resource collide,
group by registrable domain, and cap any one domain's contribution so a
handful of mega-sites can't dominate the training mix.

All URL kernels are vectorized ``pyarrow.compute`` regex passes over the
whole column — no per-row Python on these hot stages. The per-domain
cap is a ``grouped_apply`` exchange (hash-partition on domain, one
vectorized rank-and-filter per partition) — one all-to-all, the minimum
for a group-wise rule, with the same skew caveat as every keyed
exchange: a single domain above ~one partition of rows needs a salted
pre-cap (cap within salted subgroups first, then exactly at the
reducer), which composes with this operator unchanged.

Canonicalization rules (deterministic, documented, intentionally
conservative):
- scheme and host lowercased; userinfo stripped
- default ports dropped (``:80`` for http, ``:443`` for https)
- fragment dropped
- tracking query params dropped (``utm_*``, ``gclid``, ``fbclid``,
  ``ref``); remaining params keep their original ORDER (sorting params
  changes semantics on some sites, so we don't)
- empty ``?`` / dangling ``&`` cleaned up

Registrable domain = last two host labels, or last three when the last
two are a vendored multi-label public suffix (the high-traffic subset of
the public-suffix list; the full list drops in as data without code
changes).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.shuffle import grouped_apply

# high-traffic multi-label public suffixes (public-suffix list subset)
MULTI_LABEL_SUFFIXES = (
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
    "com.au", "net.au", "org.au", "edu.au", "gov.au",
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
    "com.br", "net.br", "org.br", "gov.br",
    "co.in", "net.in", "org.in", "gen.in", "firm.in",
    "com.cn", "net.cn", "org.cn", "gov.cn",
    "com.mx", "org.mx", "net.mx",
    "co.kr", "or.kr", "ne.kr",
    "com.tr", "net.tr", "org.tr",
    "co.za", "org.za", "net.za",
    "com.ar", "com.sg", "com.hk", "com.tw", "co.nz", "co.id",
)

_TRACKING = r"(utm_[A-Za-z0-9_]*|gclid|fbclid|ref)"


def canonical_urls(urls: pa.Array) -> pa.Array:
    """Vectorized URL canonicalization (rules in the module docstring)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    parts = pc.extract_regex(
        urls, r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://(?P<hostport>[^/?#]*)"
              r"(?P<rest>[^#]*)",
    )
    # rows that don't parse as absolute URLs pass through untouched
    ok = pc.is_valid(parts)
    scheme = pc.utf8_lower(pc.struct_field(parts, "scheme"))
    hostport = pc.utf8_lower(pc.struct_field(parts, "hostport"))
    rest = pc.struct_field(parts, "rest")  # path + query, fragment excluded
    # userinfo, then the scheme's default port
    hostport = pc.replace_substring_regex(hostport, r"^[^@]*@", "")
    host = pc.if_else(
        pc.equal(scheme, "http"),
        pc.replace_substring_regex(hostport, r":80$", ""),
        pc.if_else(
            pc.equal(scheme, "https"),
            pc.replace_substring_regex(hostport, r":443$", ""),
            hostport,
        ),
    )
    # drop tracking params wherever they sit in the query string
    rest = pc.replace_substring_regex(
        rest, r"([?&])" + _TRACKING + r"=[^&]*", r"\1")
    # collapse the artifacts: "?&" → "?", "&&" → "&", trailing "?"/"&"
    rest = pc.replace_substring_regex(rest, r"\?&+", "?")
    rest = pc.replace_substring_regex(rest, r"&&+", "&")
    rest = pc.replace_substring_regex(rest, r"[?&]+$", "")
    canon = pc.binary_join_element_wise(scheme, "://", host, rest, "")
    return pc.if_else(ok, canon, urls)


def registrable_domains(hosts: pa.Array) -> pa.Array:
    """Vectorized host → registrable domain (eTLD+1 under the vendored
    suffix subset). Unparseable hosts (no dot) pass through."""
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    last2 = pc.extract_regex(hosts, r"(?P<d>[^.]+\.[^.]+)$")
    last3 = pc.extract_regex(hosts, r"(?P<d>[^.]+\.[^.]+\.[^.]+)$")
    d2 = pc.struct_field(last2, "d")
    d3 = pc.struct_field(last3, "d")
    is_multi = pc.is_in(d2, value_set=pa.array(MULTI_LABEL_SUFFIXES))
    picked = pc.if_else(pc.and_kleene(is_multi, pc.is_valid(d3)), d3, d2)
    # IP-literal hosts have no registrable domain — pass through whole
    is_ip = pc.match_substring_regex(hosts, r"^\d{1,3}(\.\d{1,3}){3}$")
    keep_whole = pc.or_kleene(is_ip, pc.is_null(d2))
    return pc.if_else(pc.fill_null(keep_whole, True), hosts, picked)


def url_hosts(urls: pa.Array) -> pa.Array:
    """Vectorized url → lowercased host (no userinfo, no port)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    parts = pc.extract_regex(urls, r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<h>[^/?#]*)")
    host = pc.utf8_lower(pc.struct_field(parts, "h"))
    host = pc.replace_substring_regex(host, r"^[^@]*@", "")
    return pc.replace_substring_regex(host, r":[0-9]+$", "")


def add_url_columns(ds, url_col: str = "url"):
    """pages-like Dataset → + ``canonical_url``, ``domain`` columns
    (one stateless vectorized map pass)."""

    def add(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col)
        canon = canonical_urls(urls)
        dom = registrable_domains(url_hosts(canon))
        return batch.append_column("canonical_url", canon).append_column(
            "domain", dom)

    return ds.map_batches(add, batch_format="pyarrow")


def domain_counts(ds, url_col: str = "url"):
    """Docs per registrable domain (map-side derive → small groupby)."""
    from ray.data.aggregate import Count

    def derive(batch: pa.Table) -> pa.Table:
        dom = registrable_domains(url_hosts(batch.column(url_col)))
        return pa.table({"domain": dom})

    return (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(Count(alias_name="n_docs"))
    )


def cap_per_domain(ds, max_per_domain: int, url_col: str = "url"):
    """Keep at most ``max_per_domain`` rows per registrable domain,
    chosen by a deterministic content-free rank (md5 of the url, ties
    by url) so the sample is reproducible and unbiased by crawl order —
    the RefinedWeb-style anti-domination cap.

    Rank columns are derived map-side; one hash-partition exchange on
    ``domain``; each partition sorts its (domain, rank) slice and keeps
    group-wise heads vectorized.
    """
    import hashlib

    def derive(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col)
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        dom = registrable_domains(url_hosts(urls))
        rank = pa.array(
            [hashlib.md5(u.encode()).hexdigest() for u in urls.to_pylist()],
            pa.string(),
        )
        return batch.append_column("domain", dom).append_column("_rank", rank)

    def head_per_domain(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part.drop_columns(["_rank"])
        part = part.sort_by(
            [("domain", "ascending"), ("_rank", "ascending"),
             (url_col, "ascending")]
        )
        import numpy as np

        dom = part.column("domain").to_numpy(zero_copy_only=False)
        new_group = np.r_[True, dom[1:] != dom[:-1]]
        # position within each run of equal domains
        idx = np.arange(len(dom))
        start = np.maximum.accumulate(np.where(new_group, idx, 0))
        keep = (idx - start) < max_per_domain
        return part.filter(pa.array(keep)).drop_columns(["_rank"])

    derived = ds.map_batches(derive, batch_format="pyarrow")
    return grouped_apply(derived, ["domain"], head_per_domain)


def extract_link_edges(ds, url_col: str = "url", html_col: str = "html"):
    """pages-like Dataset → ``(src_url, dst_url)`` — one row per
    extracted anchor (duplicates kept as edge-weight signal). A pure
    map stage: the raw-archive → web-graph step of a crawl pipeline."""
    from ..functions.html import extract_links

    def explode(batch: pa.Table) -> pa.Table:
        src: list[str] = []
        dst: list[str] = []
        for u, h in zip(batch.column(url_col).to_pylist(),
                        batch.column(html_col).to_pylist()):
            for link in extract_links(h or b"", u):
                src.append(u)
                dst.append(link)
        return pa.table({"src_url": pa.array(src, pa.string()),
                         "dst_url": pa.array(dst, pa.string())})

    return ds.map_batches(explode, batch_format="pyarrow")


def anchor_text_counts(ds, url_col: str = "url", html_col: str = "html"):
    """pages → ``(dst_domain, anchor, n_links)`` — how the web DESCRIBES
    each target: anchor-text aggregation per registrable destination
    domain, the classic target-side relevance/alias signal (search
    ranking, KG alias mining — the web-scale sibling of the
    entity-linker's alias dictionary).  Extraction and domain mapping
    are map stages; the only exchange is the final pre-combined
    two-key groupby.  Empty-text anchors (image links) aggregate under
    ``""``."""
    from ray.data.aggregate import Count

    from ..functions.html import extract_anchor_texts

    def explode(batch: pa.Table) -> pa.Table:
        dst: list[str] = []
        txt: list[str] = []
        for u, h in zip(batch.column(url_col).to_pylist(),
                        batch.column(html_col).to_pylist()):
            for link, text in extract_anchor_texts(h or b"", u):
                dst.append(link)
                txt.append(text)
        return pa.table({
            "dst_domain": registrable_domains(url_hosts(
                pa.array(dst, pa.string()))),
            "anchor": pa.array(txt, pa.string()),
        })

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["dst_domain", "anchor"])
        .aggregate(Count(alias_name="n_links"))
    )


def host_link_graph(ds, url_col: str = "url", html_col: str = "html"):
    """pages → registrable-domain link graph
    ``(src_domain, dst_domain, n_links)``: link extraction and domain
    mapping are map stages; the only exchange is the final (pre-combined)
    groupby on the two domain columns. Self-loops kept (same-domain
    navigation links are real edges; callers filter if not wanted).
    Feed the result to :func:`.graph.pagerank` for host ranking."""
    from ray.data.aggregate import Count

    def to_domains(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src_domain": registrable_domains(url_hosts(
                batch.column("src_url"))),
            "dst_domain": registrable_domains(url_hosts(
                batch.column("dst_url"))),
        })

    return (
        extract_link_edges(ds, url_col, html_col)
        .map_batches(to_domains, batch_format="pyarrow")
        .groupby(["src_domain", "dst_domain"])
        .aggregate(Count(alias_name="n_links"))
    )


def dedup_recrawls(ds, url_col: str = "url", ts_col: str = "warc_ts"):
    """Collapse re-crawls of the same resource: canonicalize urls, keep
    the LATEST capture per canonical url (ties broken by the raw url,
    ascending). This is WHY crawl pipelines canonicalize — the same page
    recaptured under tracking-param / port / fragment variants must
    collide before content-level dedup ever runs.

    Canonical url is derived map-side; one hash-partition exchange on
    it; each partition keeps run-heads after a vectorized
    (canonical, ts desc) sort. The output keeps the ORIGINAL columns
    plus ``canonical_url``.
    """
    import numpy as np

    def derive(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "canonical_url", canonical_urls(batch.column(url_col)))

    def keep_latest(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        part = part.sort_by([
            ("canonical_url", "ascending"), (ts_col, "descending"),
            (url_col, "ascending"),
        ])
        cu = part.column("canonical_url").to_numpy(zero_copy_only=False)
        keep = np.r_[True, cu[1:] != cu[:-1]]
        return part.filter(pa.array(keep))

    derived = ds.map_batches(derive, batch_format="pyarrow")
    return grouped_apply(derived, ["canonical_url"], keep_latest)


def crawl_diff(old_ds, new_ds, url_col: str = "url",
               text_col: str = "text"):
    """Diff two crawl snapshots by CANONICAL url + content fingerprint:
    ``added`` (only in new), ``removed`` (only in old), ``changed``
    (both, md5(text) differs), ``unchanged``. The incremental-crawl
    primitive: re-process only ``added`` + ``changed`` pages instead of
    the whole snapshot.

    Each side derives (canonical_url, md5 fingerprint, side tag)
    map-side; ONE hash-partition exchange on canonical_url co-locates a
    url's two sides; the per-partition compare is a vectorized pandas
    index-align. Inputs are expected url-unique per side (apply
    :func:`dedup_recrawls` first if a side may carry re-captures).
    """
    import hashlib

    import numpy as np
    import pandas as pd

    def derive(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            canon = canonical_urls(batch.column(url_col))
            fp = [hashlib.md5((t or "").encode()).hexdigest()
                  for t in batch.column(text_col).to_pylist()]
            return pa.table({
                "canonical_url": canon,
                "fp": pa.array(fp, pa.string()),
                "side": pa.array([side] * batch.num_rows, pa.int8()),
            })
        return fn

    union = (old_ds.map_batches(derive(0), batch_format="pyarrow")
             .union(new_ds.map_batches(derive(1), batch_format="pyarrow")))

    def diff(pdf: pd.DataFrame) -> pd.DataFrame:
        old = pdf[pdf.side == 0].set_index("canonical_url").fp
        new = pdf[pdf.side == 1].set_index("canonical_url").fp
        both = old.index.union(new.index)
        o = old.reindex(both)
        n = new.reindex(both)
        status = np.where(
            n.isna(), "removed",
            np.where(o.isna(), "added",
                     np.where(o != n, "changed", "unchanged")))
        return pd.DataFrame({"canonical_url": both, "status": status})

    return grouped_apply(union, ["canonical_url"], diff,
                         batch_format="pandas")


def url_block_filter(ds, blocked_domains: tuple[str, ...] = (),
                     blocked_words: tuple[str, ...] = (),
                     url_col: str = "url"):
    """RefinedWeb-style URL filtering (Penedo et al. 2023 §3.1 — the
    UT1-blocklist + URL-word scoring step every crawl pipeline runs
    BEFORE fetching content): a page drops when its registrable domain
    is on the domain blocklist, or when any blocklist WORD occurs in
    the lowercased URL.  Both lists are caller-supplied data (the
    published pipelines ship curated lists; tests plant their own).

    Pure map stage: registrable-domain mapping rides the existing
    vectorized kernels; the domain check is one ``pc.is_in`` against
    the (small, broadcast-by-closure) list and the word check ONE
    ``pc.match_substring_regex`` with an alternation of
    ``re.escape``-d words — no per-row Python, no exchange.  Output:
    input columns + ``domain``, ``n_blockwords:int64``,
    ``blocked_domain:int64``, ``keep:int64`` (ints for SQL-oracle
    parity).  Callers filter on ``keep``; emitting the flags keeps the
    operator auditable (WHY a page dropped is itself curation
    metadata)."""
    import re

    import numpy as np

    dom_set = pa.array(sorted(set(blocked_domains)), pa.string())
    words = sorted(set(w.lower() for w in blocked_words))
    word_res = [re.escape(w) for w in words]

    def flags(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col)
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        dom = registrable_domains(url_hosts(urls))
        low = pc.utf8_lower(urls)
        if len(dom_set):
            blocked = pc.is_in(dom, value_set=dom_set).to_numpy(
                zero_copy_only=False)
        else:
            blocked = np.zeros(len(batch), bool)
        n_words = np.zeros(len(batch), np.int64)
        for wre in word_res:
            n_words += pc.count_substring_regex(low, wre).to_numpy(
                zero_copy_only=False).astype(np.int64)
        keep = (~blocked) & (n_words == 0)
        out = batch.append_column("domain", dom)
        out = out.append_column(
            "n_blockwords", pa.array(n_words))
        out = out.append_column(
            "blocked_domain", pa.array(blocked.astype(np.int64)))
        return out.append_column("keep", pa.array(keep.astype(np.int64)))

    return ds.map_batches(flags, batch_format="pyarrow")


def robots_filter(pages, robots, agent: str = "*", url_col: str = "url",
                  robots_col: str = "robots_txt"):
    """Crawl-politeness filtering (RFC 9309, via
    ``functions/robots.py``): join every page with its registrable
    domain's robots.txt and keep the most-specific-rule verdict for
    ``agent``.  Pages whose domain has no robots row — or an empty /
    rule-less file — are allowed (the RFC default).

    Scale shape: (domain, path) derive map-side on the pages,
    domain derive on the robots side, then ONE co-partitioned union
    exchange on the domain (``relational._copartition`` — the robots
    side is one row per domain; a broadcast would not scale to the
    ~10⁸ domains of a full crawl); each partition parses a domain's
    robots ONCE and applies it to all that domain's pages vectorized
    per rule.  Output: page columns + ``domain``, ``path``,
    ``allowed:int64`` (flags kept for auditability, like
    :func:`url_block_filter`)."""
    import numpy as np

    from ..functions.robots import parse_robots, robots_allowed
    from .relational import _copartition

    def derive(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col)
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        dom = registrable_domains(url_hosts(urls))
        parts = pc.extract_regex(
            urls, r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*(?P<p>[^#]*)")
        p = pc.fill_null(pc.struct_field(parts, "p"), "")
        p = pc.if_else(pc.equal(p, ""), "/", p)
        return batch.append_column("domain", dom).append_column(
            "path", p)

    def derive_robots(batch: pa.Table) -> pa.Table:
        return batch.select(["domain", robots_col])

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        n = lt.num_rows
        allowed = np.ones(n, bool)
        if n and rt.num_rows:
            rules = {
                d: parse_robots(t or "", agent)
                for d, t in zip(rt.column("domain").to_pylist(),
                                rt.column(robots_col).to_pylist())
            }
            doms = lt.column("domain").to_numpy(zero_copy_only=False)
            paths = lt.column("path").to_numpy(zero_copy_only=False)
            for dom, dom_rules in rules.items():
                if not dom_rules:
                    continue
                mask = doms == dom
                if mask.any():
                    allowed[mask] = robots_allowed(paths[mask],
                                                   dom_rules)
        return lt.append_column(
            "allowed", pa.array(allowed.astype(np.int64)))

    derived = pages.map_batches(derive, batch_format="pyarrow")
    rb = robots.map_batches(derive_robots, batch_format="pyarrow")
    return _copartition(derived, rb, "domain", "domain",
                        ["domain", robots_col], probe)


def page_metadata(pages, url_col: str = "url", html_col: str = "html"):
    """pages → ``(url, title, meta_description, canonical_url,
    og_title)`` — the page-level metadata a curation/KG pipeline mines
    from raw HTML (titles and og:titles are entity-alias signal; the
    canonical link is the site's OWN dedup hint, composable with
    :func:`dedup_recrawls`).  Pure map stage, compiled-regex scans per
    page (``functions/html.extract_metadata``); absent fields are
    null."""
    from ..functions.html import extract_metadata

    def mine(batch: pa.Table) -> pa.Table:
        metas = [
            extract_metadata(h or b"")
            for h in batch.column(html_col).to_pylist()
        ]
        out = pa.table({
            url_col: batch.column(url_col),
            "title": pa.array([m["title"] for m in metas], pa.string()),
            "meta_description": pa.array(
                [m["meta_description"] for m in metas], pa.string()),
            "canonical_url": pa.array(
                [m["canonical_url"] for m in metas], pa.string()),
            "og_title": pa.array(
                [m["og_title"] for m in metas], pa.string()),
        })
        return out

    return pages.map_batches(mine, batch_format="pyarrow")


def crawl_frontier(pages, url_col: str = "url", html_col: str = "html"):
    """Frontier discovery — the crawl loop's next-fetch list: anchor
    targets the corpus has SEEN but not FETCHED, ranked by referring
    evidence (distinct referring registrable domains, then total
    in-links — the BFS/OPIC-style prioritization signal every crawler
    keeps).

    Composition of existing operators, all scale-shaped: link explode
    (map) → canonicalize both sides (map) → EXACT
    :func:`relational.bloom_anti_join` against the crawled
    canonical-url set (bloom-negative discoveries — almost everything
    on an expanding crawl — never shuffle; bloom-positive candidates
    verify exactly) → a pre-combined two-key groupby per
    (frontier_url, src_domain), then the per-url rollup
    ``(n_src_domains, n_links)``."""
    from ray.data.aggregate import Count, Sum

    from .relational import bloom_anti_join

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({
            "frontier_url": canonical_urls(batch.column("dst_url")),
            "src_domain": registrable_domains(url_hosts(
                batch.column("src_url"))),
        })

    def crawled_set(batch: pa.Table) -> pa.Table:
        return pa.table({
            "crawled_url": canonical_urls(batch.column(url_col)),
        })

    discovered = extract_link_edges(pages, url_col, html_col).map_batches(
        derive, batch_format="pyarrow")
    crawled = pages.map_batches(crawled_set, batch_format="pyarrow")
    frontier = bloom_anti_join(discovered, crawled, "frontier_url",
                               "crawled_url")
    pair = frontier.groupby(["frontier_url", "src_domain"]).aggregate(
        Count(alias_name="n"))
    return pair.groupby("frontier_url").aggregate(
        Count(alias_name="n_src_domains"),
        Sum("n", alias_name="n_links"),
    )


def main_content(pages, stopwords: tuple[str, ...],
                 url_col: str = "url", html_col: str = "html", **justext_kw):
    """Structure-based main-content extraction
    (``functions/html.justext_blocks`` — the jusText heuristics): keep
    the final-good blocks joined with blank lines.  The third member of
    the boilerplate-removal family — corpus-frequency
    (``clean.strip_boilerplate``), line rules (``clean.c4_line_filter``)
    and now DOM-block text/link density; pure map stage.  Output:
    ``(url, main_text, n_blocks:int64, n_good:int64)`` — pages with no
    good block keep ``main_text=""`` (callers filter)."""
    from ..functions.html import justext_blocks

    def extract(batch: pa.Table) -> pa.Table:
        texts, nb, ng = [], [], []
        for h in batch.column(html_col).to_pylist():
            blocks = justext_blocks(h or b"", stopwords, **justext_kw)
            good = [t for t, lb in blocks if lb == "good"]
            texts.append("\n\n".join(good))
            nb.append(len(blocks))
            ng.append(len(good))
        return pa.table({
            url_col: batch.column(url_col),
            "main_text": pa.array(texts, pa.large_string()),
            "n_blocks": pa.array(nb, pa.int64()),
            "n_good": pa.array(ng, pa.int64()),
        })

    return pages.map_batches(extract, batch_format="pyarrow")


def sitemap_urls(sitemaps, url_col: str = "url", xml_col: str = "xml"):
    """sitemap corpus → one row per advertised URL (or nested sitemap):
    ``(sitemap_url, kind, loc, lastmod, priority)`` — the crawl's seed
    and refresh feed; join ``loc`` against :func:`crawl_frontier` output
    or ``lastmod`` against the last capture (``dedup_recrawls``) to
    schedule re-fetches.  Pure map stage over
    ``functions/html.parse_sitemap``."""
    from ..functions.html import parse_sitemap

    def explode(batch: pa.Table) -> pa.Table:
        src, kind, loc, lastmod, prio = [], [], [], [], []
        for u, x in zip(batch.column(url_col).to_pylist(),
                        batch.column(xml_col).to_pylist()):
            for row in parse_sitemap(x or b""):
                src.append(u)
                kind.append(row["kind"])
                loc.append(row["loc"])
                lastmod.append(row["lastmod"])
                prio.append(row["priority"])
        return pa.table({
            "sitemap_url": pa.array(src, pa.string()),
            "kind": pa.array(kind, pa.string()),
            "loc": pa.array(loc, pa.string()),
            "lastmod": pa.array(lastmod, pa.string()),
            "priority": pa.array(prio, pa.float64()),
        })

    return sitemaps.map_batches(explode, batch_format="pyarrow")


def mirror_paths(pages, min_domains: int = 3, url_col: str = "url"):
    """Mirror detection — the same path+query served by many
    registrable domains is the signature of mirrored sites (software
    archives, wiki dumps, spam farms), which multiply near-duplicate
    content BEFORE any content-level dedup runs.  Emits one row per
    suspicious path: ``(path, n_domains, n_pages)`` for paths seen on
    ≥ ``min_domains`` distinct domains.

    Map-side derive (canonical url → host-free path+query, domain);
    one pre-combined two-key groupby per (path, domain); per-path
    rollup; filter.  Path-keyed — a hot path (``/index.html``) lands
    on one partition but carries one row per domain after the
    pre-combine, so partitions stay balanced."""
    from ray.data.aggregate import Count, Sum

    def derive(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col)
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        canon = canonical_urls(urls)
        parts = pc.extract_regex(
            canon, r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*(?P<p>[^#]*)")
        p = pc.fill_null(pc.struct_field(parts, "p"), "")
        p = pc.if_else(pc.equal(p, ""), "/", p)
        return pa.table({
            "path": p,
            "domain": registrable_domains(url_hosts(canon)),
        })

    pair = (
        pages.map_batches(derive, batch_format="pyarrow")
        .groupby(["path", "domain"])
        .aggregate(Count(alias_name="n"))
    )
    rolled = pair.groupby("path").aggregate(
        Count(alias_name="n_domains"),
        Sum("n", alias_name="n_pages"),
    )
    return rolled.filter(
        expr=f"n_domains >= {int(min_domains)}")


def host_cocitation(ds, url_col: str = "url", html_col: str = "html",
                    min_count: int = 1):
    """pages → ``(dom_a, dom_b, n_pages)``: for every unordered pair of
    registrable domains, how many pages link to BOTH — co-citation, the
    classic relatedness signal (domains repeatedly cited together are
    topically or organizationally related; spam constellations co-cite
    each other from farms).  Complements :func:`host_link_graph` (who
    links whom) with who-is-linked-together.

    Scale shape: a page's anchors all live in its own row, so the
    per-page DISTINCT destination-domain set and its sorted pairs form
    map-side (pairs are bounded by per-page out-degree², the same cap
    regime as the LSH buckets — cap the per-page set if a link farm
    explodes it); the only exchange is the final pre-combined two-key
    groupby."""
    from ray.data.aggregate import Count

    from ..functions.html import extract_links

    def pairs(batch: pa.Table) -> pa.Table:
        a_out: list[str] = []
        b_out: list[str] = []
        for u, h in zip(batch.column(url_col).to_pylist(),
                        batch.column(html_col).to_pylist()):
            links = extract_links(h or b"", u)
            if not links:
                continue
            doms = registrable_domains(
                url_hosts(pa.array(links, pa.string())))
            dset = sorted({d for d in doms.to_pylist() if d})
            for i in range(len(dset)):
                for j in range(i + 1, len(dset)):
                    a_out.append(dset[i])
                    b_out.append(dset[j])
        return pa.table({"dom_a": pa.array(a_out, pa.string()),
                         "dom_b": pa.array(b_out, pa.string())})

    out = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby(["dom_a", "dom_b"])
        .aggregate(Count(alias_name="n_pages"))
    )
    if min_count > 1:
        import pyarrow.compute as _pc

        out = out.map_batches(
            lambda b: b.filter(_pc.greater_equal(
                b.column("n_pages"), min_count)),
            batch_format="pyarrow")
    return out


def dedup_recrawls_windowed(ds, window_days: int = 30,
                            url_col: str = "url",
                            ts_col: str = "warc_ts"):
    """Temporal-corpus re-crawl collapse: keep the latest capture per
    canonical url WITHIN EACH ``window_days`` window (epoch-aligned
    UTC buckets) instead of one capture forever — the semantics
    longitudinal / news corpora need, where a page's monthly snapshots
    are all wanted but within-month recaptures are noise.  Ties break
    by raw url ascending, like ``dedup_recrawls``.

    Same shape as the unwindowed collapse: canonical url + window
    derive map-side, ONE (canonical_url, window) exchange, vectorized
    run-head keep.  Output keeps the original columns plus
    ``canonical_url`` and ``window:int64``."""
    import numpy as np

    us_per_window = window_days * 86_400_000_000

    def derive(batch: pa.Table) -> pa.Table:
        # normalize to µs first — inputs arrive as timestamp[s|ms|us|ns]
        # depending on the writer, and a raw int64 cast yields that unit
        ts_us = pc.cast(
            pc.cast(batch.column(ts_col), pa.timestamp("us")), pa.int64())
        win = pc.divide(ts_us, us_per_window)
        return batch.append_column(
            "canonical_url", canonical_urls(batch.column(url_col))
        ).append_column("window", pc.cast(win, pa.int64()))

    def keep_latest(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        part = part.sort_by([
            ("canonical_url", "ascending"), ("window", "ascending"),
            (ts_col, "descending"), (url_col, "ascending"),
        ])
        cu = part.column("canonical_url").to_numpy(zero_copy_only=False)
        w = part.column("window").to_numpy(zero_copy_only=False)
        keep = np.r_[True, (cu[1:] != cu[:-1]) | (w[1:] != w[:-1])]
        return part.filter(pa.array(keep))

    derived = ds.map_batches(derive, batch_format="pyarrow")
    return grouped_apply(derived, ["canonical_url", "window"],
                         keep_latest)
