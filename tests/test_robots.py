"""RFC 9309 robots.txt parsing + the domain-joined politeness filter
(functions/robots.py, pipelines/web.robots_filter)."""

import numpy as np
import pyarrow as pa

from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.robots import (
    parse_robots,
    robots_allowed,
)

ROBOTS = """\
# comment line
User-agent: graftbot
Disallow: /

User-agent: *
Disallow: /private
Allow: /private/ok
Disallow: /tmp/*.pdf$
"""


def allowed(text, agent, path):
    return bool(robots_allowed(np.array([path], object),
                               parse_robots(text, agent))[0])


class TestParseRobots:
    def test_group_selection_specific_beats_star(self):
        assert not allowed(ROBOTS, "graftbot", "/anything")
        assert allowed(ROBOTS, "otherbot", "/anything")

    def test_longest_match_wins(self):
        assert not allowed(ROBOTS, "*", "/private/page")
        assert allowed(ROBOTS, "*", "/private/ok/page")

    def test_wildcard_and_end_anchor(self):
        assert not allowed(ROBOTS, "*", "/tmp/x/report.pdf")
        assert allowed(ROBOTS, "*", "/tmp/x/report.pdf?dl=1")  # $ anchor
        assert allowed(ROBOTS, "*", "/tmp/x/report.txt")

    def test_tie_prefers_allow(self):
        text = "User-agent: *\nDisallow: /a/b\nAllow: /a/c\n"
        # equal-length patterns never match the same path; build a real
        # tie with wildcards of equal pattern length
        tie = "User-agent: *\nDisallow: /d*\nAllow: /*d\n"
        assert allowed(tie, "*", "/d")
        assert not allowed(text, "*", "/a/b/x")

    def test_empty_disallow_and_blank_file(self):
        assert allowed("User-agent: *\nDisallow:\n", "*", "/x")
        assert allowed("", "*", "/x")
        assert parse_robots("", "*") == []

    def test_consecutive_agents_share_rules(self):
        text = "User-agent: a\nUser-agent: b\nDisallow: /x\n"
        assert not allowed(text, "b", "/x/1")
        assert not allowed(text, "a", "/x/1")
        assert allowed(text, "c", "/x/1")


class TestRobotsFilter:
    def mk(self, ray_session):
        import ray

        pages = ray.data.from_items([
            {"url": "https://a.com/private/x"},
            {"url": "https://www.a.com/private/ok/x"},  # subdomain maps
            {"url": "https://a.com/pub"},
            {"url": "https://b.com/private/x"},          # no robots row
            {"url": "https://a.com"},                    # bare -> path /
        ])
        robots = ray.data.from_items([
            {"domain": "a.com",
             "robots_txt": ("User-agent: *\nDisallow: /private\n"
                            "Allow: /private/ok\n")},
        ])
        return pages, robots

    def test_verdicts(self, ray_session):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            robots_filter,
        )

        pages, robots = self.mk(ray_session)
        out = {r["url"]: r for r in
               robots_filter(pages, robots).take_all()}
        assert out["https://a.com/private/x"]["allowed"] == 0
        assert out["https://www.a.com/private/ok/x"]["allowed"] == 1
        assert out["https://a.com/pub"]["allowed"] == 1
        assert out["https://b.com/private/x"]["allowed"] == 1
        assert out["https://a.com"]["allowed"] == 1
        assert out["https://a.com"]["path"] == "/"

    def test_agent_specific_group(self, ray_session):
        import ray

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            robots_filter,
        )

        pages = ray.data.from_items([{"url": "https://a.com/x"}])
        robots = ray.data.from_items([
            {"domain": "a.com",
             "robots_txt": ("User-agent: graftbot\nDisallow: /\n\n"
                            "User-agent: *\nDisallow: /private\n")},
        ])
        star = robots_filter(pages, robots).take_all()[0]
        bot = robots_filter(pages, robots, agent="graftbot").take_all()[0]
        assert star["allowed"] == 1
        assert bot["allowed"] == 0

    def test_partition_independent(self, ray_session, fixed_partitions):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
            robots_filter,
        )

        pages, robots = self.mk(ray_session)
        fixed_partitions(1)
        one = robots_filter(pages, robots).sort("url").take_all()
        fixed_partitions(7)
        many = robots_filter(pages.repartition(3),
                             robots).sort("url").take_all()
        assert one == many


class TestRobotsProperties:
    def test_matcher_agrees_with_fnmatch_reference(self):
        import fnmatch

        from hypothesis import given, settings
        from hypothesis import strategies as st

        chars = st.sampled_from(list("ab/.-"))
        path_st = st.text(alphabet=chars, min_size=1, max_size=12).map(
            lambda s: "/" + s)
        pat_st = st.text(alphabet=st.sampled_from(list("ab/*")),
                         min_size=1, max_size=8).map(lambda s: "/" + s)
        rule_st = st.tuples(st.booleans(), pat_st)

        @settings(max_examples=200, deadline=None)
        @given(st.lists(rule_st, min_size=1, max_size=5), path_st)
        def check(rules, path):
            text = "User-agent: *\n" + "\n".join(
                ("Allow: " if allow else "Disallow: ") + pat
                for allow, pat in rules)
            got = allowed(text, "*", path)
            # independent reference: fnmatch prefix-matching + the
            # longest-pattern / allow-on-tie selection
            best_len, best_allow = -1, True
            for allow, pat in rules:
                if fnmatch.fnmatchcase(path, pat + "*"):
                    if len(pat) > best_len:
                        best_len, best_allow = len(pat), allow
                    elif len(pat) == best_len and allow:
                        best_allow = True
            assert got == best_allow, (rules, path)

        check()
