#!/usr/bin/env python3
"""Repo-specific lint for the cipfl codebase.

Rules (see README "Correctness tooling"):
  pragma-once     every .h must start with `#pragma once` (after comments)
  banned-rand     `rand()` / `srand()` are banned — use cip::Rng
  random-device   `std::random_device` is banned (non-deterministic seeding)
  unseeded-rng    constructing a std:: engine without an explicit seed is
                  banned outside src/common/rng.h (the sanctioned wrapper)
  reinterpret     `reinterpret_cast` is banned outside src/fl/serialize.cpp
                  (the audited byte-level (de)serialization boundary) and
                  src/net/socket.cpp (the sockaddr casts the BSD socket ABI
                  requires)
  include-style   no `#include <bits/...>`, no parent-relative includes
  bench-json      committed BENCH_*.json perf baselines at the repo root
                  must parse as JSON (a broken baseline silently disables
                  regression comparison — see docs/BENCHMARKS.md)
  bench-release   committed BENCH_*.json baselines must record
                  host.cip_build_type == "release": numbers from an
                  unoptimized build are meaningless as a regression baseline
  raw-thread      constructing `std::thread` / `std::jthread` is banned
                  outside src/common/parallel.cpp (plus its stress test,
                  which needs an external top-level caller thread) — all
                  parallelism goes through ParallelFor's persistent worker
                  pool so thread creation stays centralized (reading
                  std::thread::hardware_concurrency is fine)
  thread-include  `#include <thread>` / `<mutex>` / `<condition_variable>` /
                  `<shared_mutex>` is banned outside the parallel.cpp
                  allowlist (raw-thread confines construction; this confines
                  the headers themselves, so threading primitives cannot
                  creep in under any spelling).
  intrinsic-include
                  x86 SIMD intrinsic headers (<immintrin.h> and friends)
                  are banned outside the per-ISA GEMM kernel TUs
                  (src/tensor/gemm_avx2.cpp, src/tensor/gemm_avx512.cpp) so
                  raw intrinsics cannot leak past the dispatch boundary —
                  portable code uses GNU vector extensions or scalars, and
                  ISA-specific code stays behind the kernel registry
                  (docs/KERNELS.md)
  socket-include  raw socket headers (<sys/socket.h>, <netinet/*>,
                  <arpa/inet.h>, <poll.h>, <netdb.h>, <sys/un.h>) are banned
                  outside src/net/ — every byte that crosses the network
                  goes through the net/socket.h RAII layer and the framed
                  protocol (docs/PROTOCOL.md), the same confinement idea as
                  reinterpret/intrinsic-include
  rng-ref-param   headers under src/fl and src/core must not declare new
                  `Rng&` parameters: shared mutable RNG streams are what made
                  concurrent client execution racy pre-RoundContext. Client
                  randomness flows through RoundContext::rng (a per-(round,
                  client) value stream); private helpers that thread a local
                  stream live on the allowlist.
  client-vector   owning vectors of FL clients
                  (std::vector<std::unique_ptr<...ClientBase>>) are banned
                  outside ClientStore: the store is the one sanctioned owner
                  of a fleet (fl/client_store.h), so lifecycle, checkpointing
                  and spill policy stay in one place. Non-owning
                  std::vector<ClientBase*> views and vectors of concrete
                  client types remain legal. Allowlist: the store itself
                  and its test.
  doc-comment     WARNING (does not fail the run): public functions declared
                  in src/tensor, src/nn, src/fl, src/core, src/common and
                  src/net headers should carry a doc comment on the
                  preceding line
  doc-link        relative markdown links in README.md and docs/*.md must
                  resolve to files that exist (stale links rot silently;
                  anchors/URLs are not checked)

Exit status: 0 clean, 1 violations found, 2 usage/internal error. Warnings
are printed but never affect the exit status.
`--self-test` seeds one violation per rule into a temp tree and verifies the
linter flags each of them (used as a ctest test so the linter itself cannot
silently rot).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
import tempfile

LINT_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".cpp"}

# Files allowed to break a specific rule, relative to the repo root.
ALLOWLIST = {
    "unseeded-rng": {"src/common/rng.h"},
    # serialize.cpp is the audited byte-level boundary; socket.cpp needs
    # reinterpret_cast for the sockaddr/sockaddr_in puns the BSD socket ABI
    # is defined in terms of (bind/connect/getsockname).
    "reinterpret": {"src/fl/serialize.cpp", "src/net/socket.cpp"},
    # ClientStore is the one sanctioned owner of a ClientBase fleet; its
    # test is the only other place that may hold owning client vectors.
    "client-vector": {
        "src/fl/client_store.h",
        "src/fl/client_store.cpp",
        "tests/test_client_store.cpp",
    },
    # Private helpers that receive the RoundContext's stream by reference
    # (cip_client, perturbation) and the epoch-level training primitive that
    # callers drive with a local stream (trainer). No public round-time API.
    "rng-ref-param": {
        "src/fl/trainer.h",
        "src/core/cip_client.h",
        "src/core/perturbation.h",
    },
    # The worker pool is the single sanctioned thread-creation site in the
    # library. Its own stress test is the one other exception: verifying
    # that concurrent *top-level* parallel regions make progress requires an
    # external caller thread, which the library API cannot produce (anything
    # it launches is nested and runs inline).
    "raw-thread": {"src/common/parallel.cpp", "tests/test_parallel_stress.cpp"},
    # Same confinement at the preprocessor level.
    "thread-include": {
        "src/common/parallel.cpp",
        "tests/test_parallel_stress.cpp",
    },
    # The only TUs allowed to see raw x86 intrinsics: the per-ISA GEMM
    # microkernels, compiled with their own -m flags and reached exclusively
    # through the kernel registry (src/tensor/gemm_kernels.h). Even
    # cpu_features.cpp stays off this list — it probes via <cpuid.h> and
    # inline asm precisely so it never needs the intrinsic headers.
    "intrinsic-include": {
        "src/tensor/gemm_avx2.cpp",
        "src/tensor/gemm_avx512.cpp",
    },
}

# Directories skipped by lint_tree entirely. The analyzer fixture corpus
# (tools/cip_analyze.py --self-test) deliberately contains rand(), raw
# threads, <mutex> includes and the like as known-bad inputs; linting it
# would demand violations.
EXCLUDE_DIRS = ("tests/analyze_fixtures",)

RE_COMMENT_LINE = re.compile(r"^\s*(//|\*|/\*)")
RE_BANNED_RAND = re.compile(r"(?<![\w:])s?rand\s*\(")
RE_RANDOM_DEVICE = re.compile(r"\bstd::random_device\b")
# Default-constructed standard RNG engines: `std::mt19937 g;`, `...{}`, `...()`.
RE_UNSEEDED_RNG = re.compile(
    r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux\w+)\b"
    r"\s+\w+\s*(;|\{\s*\}|\(\s*\))"
)
RE_REINTERPRET = re.compile(r"\breinterpret_cast\b")
# An owning vector of FL clients: the base-class unique_ptr element type is
# what marks fleet ownership. Views (ClientBase*) and concrete-type vectors
# (e.g. vector<unique_ptr<ProbeClient>>) deliberately do not match.
RE_CLIENT_VECTOR = re.compile(
    r"std::vector<\s*std::unique_ptr<\s*[\w:]*ClientBase\s*>")
# An `Rng&` function parameter: `Rng& rng,`, `Rng& rng)`, unnamed `Rng&)`.
# Local `Rng&` bindings (`Rng& r = ...`) don't hit a separator and stay legal.
RE_RNG_REF_PARAM = re.compile(r"\bRng\s*&\s*\w*\s*[,)]")
# Directories whose headers define the client-facing FL surface.
RNG_REF_DIRS = ("src/fl/", "src/core/")
RE_BITS_INCLUDE = re.compile(r'#\s*include\s*<bits/')
RE_PARENT_INCLUDE = re.compile(r'#\s*include\s*"\.\./')
# `std::thread` / `std::jthread` the type; the (?!:) lookahead keeps
# `std::thread::hardware_concurrency` legal, and `std::this_thread::...`
# never matches `std::thread` in the first place.
RE_RAW_THREAD = re.compile(r"\bstd::(?:jthread\b|thread\b(?!\s*::))")
RE_THREAD_INCLUDE = re.compile(
    r"#\s*include\s*<(?:thread|mutex|condition_variable|shared_mutex)>")
# The umbrella x86 intrinsic headers plus the per-extension ones they pull
# in; any spelling of "give me _mm*_ intrinsics" should hit this.
RE_INTRINSIC_INCLUDE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|x86gprintrin|xmmintrin|emmintrin|"
    r"pmmintrin|tmmintrin|smmintrin|nmmintrin|wmmintrin|ammintrin|"
    r"avxintrin|avx2intrin|avx512fintrin|fmaintrin)\.h>")
# Raw network headers: the socket(2)/poll(2) surface plus address utilities.
# <sys/resource.h>, <unistd.h> etc. stay legal everywhere — only the
# networking headers are confined.
RE_SOCKET_INCLUDE = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|sys/un\.h|sys/poll\.h|poll\.h|"
    r"netdb\.h|arpa/inet\.h|netinet/[\w.]+)>")
# The one directory allowed to touch raw sockets (see net/socket.h).
SOCKET_INCLUDE_DIR = "src/net/"


# Rules reported as warnings: printed, self-tested, but never fatal.
WARNING_RULES = {"doc-comment"}


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    @property
    def is_warning(self) -> bool:
        return self.rule in WARNING_RULES

    def __str__(self) -> str:
        sev = "warning" if self.is_warning else "error"
        return f"{self.path}:{self.line}: [{self.rule}] {sev}: {self.message}"


def strip_line_comment(line: str) -> str:
    """Drop // comments so commented-out code does not trip content rules."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def check_pragma_once(rel: str, lines: list[str]) -> list[Violation]:
    for i, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or RE_COMMENT_LINE.match(line):
            continue
        if stripped == "#pragma once":
            return []
        return [Violation(rel, i, "pragma-once",
                          "first non-comment line must be `#pragma once`")]
    return [Violation(rel, 1, "pragma-once", "header has no `#pragma once`")]


def check_content(rel: str, lines: list[str]) -> list[Violation]:
    out: list[Violation] = []
    for i, raw in enumerate(lines, start=1):
        line = strip_line_comment(raw)
        if RE_BANNED_RAND.search(line):
            out.append(Violation(rel, i, "banned-rand",
                                 "rand()/srand() banned; use cip::Rng"))
        if RE_RANDOM_DEVICE.search(line):
            out.append(Violation(rel, i, "random-device",
                                 "std::random_device banned; seed cip::Rng "
                                 "explicitly for reproducibility"))
        if rel not in ALLOWLIST["unseeded-rng"] and RE_UNSEEDED_RNG.search(line):
            out.append(Violation(rel, i, "unseeded-rng",
                                 "default-constructed std:: engine; pass an "
                                 "explicit seed (or use cip::Rng)"))
        if rel not in ALLOWLIST["reinterpret"] and RE_REINTERPRET.search(line):
            out.append(Violation(rel, i, "reinterpret",
                                 "reinterpret_cast only allowed in "
                                 "src/fl/serialize.cpp and "
                                 "src/net/socket.cpp"))
        if RE_BITS_INCLUDE.search(line):
            out.append(Violation(rel, i, "include-style",
                                 "never include <bits/...> internals"))
        if RE_PARENT_INCLUDE.search(line):
            out.append(Violation(rel, i, "include-style",
                                 'use project-root-relative includes, not "../"'))
        if (rel not in ALLOWLIST["thread-include"]
                and RE_THREAD_INCLUDE.search(line)):
            out.append(Violation(rel, i, "thread-include",
                                 "<thread>/<mutex> family headers only "
                                 "allowed in src/common/parallel.cpp and "
                                 "its stress/bench drivers; use ParallelFor"))
        if (not rel.startswith(SOCKET_INCLUDE_DIR)
                and RE_SOCKET_INCLUDE.search(line)):
            out.append(Violation(rel, i, "socket-include",
                                 "raw socket/poll headers only allowed under "
                                 "src/net/; speak the framed protocol through "
                                 "net/socket.h and net/frame.h "
                                 "(docs/PROTOCOL.md)"))
        if (rel not in ALLOWLIST["intrinsic-include"]
                and RE_INTRINSIC_INCLUDE.search(line)):
            out.append(Violation(rel, i, "intrinsic-include",
                                 "x86 intrinsic headers only allowed in the "
                                 "per-ISA GEMM kernel TUs (src/tensor/"
                                 "gemm_avx2.cpp, gemm_avx512.cpp); go through "
                                 "the kernel registry (docs/KERNELS.md)"))
        if rel not in ALLOWLIST["raw-thread"] and RE_RAW_THREAD.search(line):
            out.append(Violation(rel, i, "raw-thread",
                                 "raw std::thread/std::jthread construction "
                                 "only allowed in src/common/parallel.cpp; "
                                 "use ParallelFor / ParallelForCoarse"))
        if (rel not in ALLOWLIST["client-vector"]
                and RE_CLIENT_VECTOR.search(line)):
            out.append(Violation(rel, i, "client-vector",
                                 "owning std::vector<std::unique_ptr<"
                                 "ClientBase>> outside ClientStore; register "
                                 "clients with a live store's Add() or build "
                                 "a cold store (fl/client_store.h)"))
        if (rel.endswith(".h") and rel.startswith(RNG_REF_DIRS)
                and rel not in ALLOWLIST["rng-ref-param"]
                and RE_RNG_REF_PARAM.search(line)):
            out.append(Violation(rel, i, "rng-ref-param",
                                 "new `Rng&` parameter in a client-facing "
                                 "header; take randomness from "
                                 "RoundContext::rng instead"))
    return out


# Headers whose public functions must carry doc comments (the numeric core
# plus the federated surface: shape contracts, layout, threading and
# determinism guarantees live in these comments).
DOC_COMMENT_DIRS = ("src/tensor/", "src/nn/", "src/fl/", "src/core/",
                    "src/common/", "src/net/", "src/serve/")

# A function declaration/definition opener: optional specifiers, a return
# type containing at least one type-ish token, a name, an open paren. Control
# flow, macros and assignments are filtered out separately.
RE_FUNC_OPEN = re.compile(
    r"^\s{0,4}(?:template\s*<[^>]*>\s*)?"
    r"(?:virtual\s+|static\s+|explicit\s+|inline\s+|constexpr\s+|friend\s+)*"
    r"[A-Za-z_][\w:]*(?:\s*<[^;()]*>)?[&*\s]+"          # return type
    r"~?[A-Za-z_]\w*\s*\("                               # name(
)
RE_NOT_FUNC = re.compile(
    r"^\s*(?:if|for|while|switch|return|throw|else|do|case|using|typedef|"
    r"namespace|CIP_\w+|EXPECT_\w+|ASSERT_\w+|TEST)\b"
)
RE_DOC_LINE = re.compile(r"^\s*(///|//|\*|/\*|\*/)")
RE_ACCESS_SPEC = re.compile(r"^\s*(public|private|protected)\s*:")


def check_doc_comments(rel: str, lines: list[str]) -> list[Violation]:
    """Warn on function declarations in core headers with no comment above.

    Heuristic, by design: it tracks private:/protected: sections (skipped)
    and flags declaration openers whose preceding non-blank line is neither a
    comment nor an access specifier. Lines indented more than one level are
    taken to be statements inside an inline body rather than declarations.
    """
    if not any(rel.startswith(d) for d in DOC_COMMENT_DIRS):
        return []
    out: list[Violation] = []
    visible = True  # inside a public/namespace-scope region
    history: list[str] = []  # prior non-blank lines, most recent last

    def doc_anchor_for() -> str:
        # A standalone `template <...>` line or an `[[attribute]]` (possibly
        # wrapped, e.g. a two-line [[deprecated("...")]]) sits between a doc
        # comment and the declaration it documents; look through them.
        for past in reversed(history):
            if (re.match(r"^\s*template\s*<", past)
                    or re.match(r"^\s*\[\[", past)
                    or past.rstrip().endswith(")]]")):
                continue
            return past
        return ""

    for i, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue  # blank lines do not reset the doc-comment association
        line = strip_line_comment(raw).rstrip()
        if RE_ACCESS_SPEC.match(raw):
            visible = RE_ACCESS_SPEC.match(raw).group(1) == "public"
            history.append(raw)
            continue
        doc_anchor = doc_anchor_for()
        if (visible and RE_FUNC_OPEN.match(line)
                and not RE_NOT_FUNC.match(line)
                and "=" not in line.split("(")[0]
                # `override` members inherit the base declaration's contract.
                and not re.search(r"\boverride\b", line)
                and not RE_DOC_LINE.match(doc_anchor)
                and not RE_ACCESS_SPEC.match(doc_anchor)):
            name = line.split("(")[0].strip().split()[-1]
            out.append(Violation(
                rel, i, "doc-comment",
                f"public function `{name}` has no doc comment on the "
                "preceding line (document shape/layout/threading contracts)"))
        history.append(raw)
    return out


# A markdown link/image target: `[text](target)`. Good enough for this
# repo's docs; no reference-style links are used.
RE_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Targets the doc-link rule does not try to resolve.
RE_MD_EXTERNAL = re.compile(r"^(https?://|mailto:|#)")


def check_doc_links(root: pathlib.Path) -> list[Violation]:
    """Relative links in README.md and docs/*.md must point at real files."""
    out: list[Violation] = []
    pages = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for page in pages:
        if not page.is_file():
            continue
        rel = page.relative_to(root).as_posix()
        in_code_fence = False
        for i, line in enumerate(
                page.read_text(encoding="utf-8").splitlines(), start=1):
            if line.lstrip().startswith("```"):
                in_code_fence = not in_code_fence
                continue
            if in_code_fence:
                continue
            for m in RE_MD_LINK.finditer(line):
                target = m.group(1)
                if RE_MD_EXTERNAL.match(target):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                if not (page.parent / path_part).exists():
                    out.append(Violation(
                        rel, i, "doc-link",
                        f"link target `{target}` does not resolve "
                        f"(relative to {page.parent.relative_to(root).as_posix() or '.'}/)"))
    return out


def check_bench_json(root: pathlib.Path) -> list[Violation]:
    """BENCH_*.json at the repo root must parse and come from Release builds.

    Every baseline document records host.cip_build_type (the emitting binary
    stamps it from NDEBUG); anything other than "release" — including a
    missing key, which means the baseline predates the stamp — is rejected so
    unoptimized numbers can never become the regression reference.
    """
    out: list[Violation] = []
    for path in sorted(root.glob("BENCH_*.json")):
        rel = path.name
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            out.append(Violation(rel, 1, "bench-json",
                                 f"perf baseline does not parse: {e}"))
            continue
        build_type = doc.get("host", {}).get("cip_build_type") \
            if isinstance(doc, dict) else None
        if build_type != "release":
            out.append(Violation(
                rel, 1, "bench-release",
                f"baseline records host.cip_build_type={build_type!r}, not "
                "'release'; regenerate it from a Release build"))
    return out


def lint_file(root: pathlib.Path, path: pathlib.Path) -> list[Violation]:
    rel = path.relative_to(root).as_posix()
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        return [Violation(rel, 1, "io", f"unreadable: {e}")]
    out: list[Violation] = []
    if path.suffix == ".h":
        out += check_pragma_once(rel, lines)
        out += check_doc_comments(rel, lines)
    out += check_content(rel, lines)
    return out


def lint_tree(root: pathlib.Path) -> list[Violation]:
    violations: list[Violation] = []
    for d in LINT_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if any(rel.startswith(ex + "/") for ex in EXCLUDE_DIRS):
                continue
            violations += lint_file(root, path)
    violations += check_bench_json(root)
    violations += check_doc_links(root)
    return violations


SELF_TEST_CASES = {
    "pragma-once": "src/bad_header.h",
    "banned-rand": "src/uses_rand.cpp",
    "random-device": "src/uses_rd.cpp",
    "unseeded-rng": "src/unseeded.cpp",
    "reinterpret": "src/casts.cpp",
    "include-style": "src/bad_include.cpp",
    "doc-comment": "src/tensor/undocumented.h",
    "bench-json": "BENCH_broken.json",
    "bench-release": "BENCH_debug.json",
    "rng-ref-param": "src/fl/bad_rng_param.h",
    "client-vector": "src/eval/owns_clients.cpp",
    "raw-thread": "src/spawns_thread.cpp",
    "thread-include": "src/includes_mutex.cpp",
    "intrinsic-include": "src/nn/includes_immintrin.cpp",
    "socket-include": "src/fl/includes_socket.cpp",
    "doc-link": "docs/bad_links.md",
}

# Allowlisted paths seeded into the self-test tree that must produce zero
# violations despite containing otherwise-banned constructs (the "clean"
# filename convention can't apply: allowlists match these exact paths).
SELF_TEST_ALLOWLISTED = {
    "src/tensor/gemm_avx2.cpp",
    "src/fl/client_store.cpp",
}

SELF_TEST_SOURCES = {
    "src/bad_header.h": "#include <cstddef>\nint f();\n",
    "src/uses_rand.cpp": "int noise() { return rand() % 7; }\n",
    "src/uses_rd.cpp": "#include <random>\nunsigned s() { std::random_device rd; return rd(); }\n",
    "src/unseeded.cpp": "#include <random>\nvoid g() { std::mt19937_64 eng; (void)eng; }\n",
    "src/casts.cpp": "long p(void* v) { return *reinterpret_cast<long*>(v); }\n",
    "src/bad_include.cpp": '#include "../outside.h"\n',
    "src/tensor/undocumented.h": "#pragma once\nfloat Undocumented(int x);\n",
    "BENCH_broken.json": "{this is not json\n",
    "BENCH_debug.json":
        '{"schema": "cip-bench-kernels/v1", '
        '"host": {"cip_build_type": "debug"}}\n',
    "src/fl/bad_rng_param.h":
        "#pragma once\nvoid TrainThing(int epochs, Rng& rng);\n",
    # Owning client vectors outside ClientStore must be flagged, in any
    # namespace qualification of the element type...
    "src/eval/owns_clients.cpp":
        "void Fleet() {\n"
        "  std::vector<std::unique_ptr<fl::ClientBase>> clients;\n"
        "  std::vector<std::unique_ptr<cip::fl::ClientBase>> more;\n"
        "}\n",
    # ...while the store itself (allowlisted owner), non-owning pointer
    # views, and concrete-type vectors all stay clean.
    "src/fl/client_store.cpp":
        "std::vector<std::unique_ptr<ClientBase>> owned_;\n",
    "src/fl/client_views_clean.cpp":
        "void Views() {\n"
        "  std::vector<fl::ClientBase*> ptrs;\n"
        "  std::vector<std::unique_ptr<ProbeClient>> probes;\n"
        "}\n",
    "src/spawns_thread.cpp":
        "#include <thread>\n"
        "void Race() { std::jthread w([] {}); std::thread t([] {}); "
        "t.join(); }\n",
    # And clean files that must NOT be flagged.
    "src/clean.cpp": "#include <random>\nvoid h() { std::mt19937_64 eng(42); (void)eng; }\n",
    "src/tensor/documented_clean.h":
        "#pragma once\n"
        "/// Shape contract: returns x doubled.\n"
        "float Documented(int x);\n"
        "class Foo {\n"
        " public:\n"
        "  /// Doc.\n"
        "  void Bar();\n"
        " private:\n"
        "  void NoDocNeededHere();\n"
        "};\n",
    # A doc comment above a standalone `template <...>` line documents the
    # declaration below it.
    "src/tensor/template_doc_clean.h":
        "#pragma once\n"
        "/// Doc: applies f to each element.\n"
        "template <typename F>\n"
        "void ForEach(F f);\n",
    "BENCH_clean.json":
        '{"schema": "cip-bench-kernels/v1", '
        '"host": {"cip_build_type": "release"}}\n',
    "src/includes_mutex.cpp":
        "#include <mutex>\n"
        "void Locked() {}\n",
    # Intrinsic headers outside the kernel TUs must be flagged under any of
    # the umbrella/per-extension spellings...
    "src/nn/includes_immintrin.cpp":
        "#include <immintrin.h>\n"
        "#include <x86intrin.h>\n"
        "#include <avx512fintrin.h>\n"
        "void Fast() {}\n",
    # ...while the allowlisted kernel TU itself stays clean.
    "src/tensor/gemm_avx2.cpp":
        "#include <immintrin.h>\n"
        "void Kernel() {}\n",
    # Raw socket/poll headers outside src/net must be flagged under every
    # confined spelling...
    "src/fl/includes_socket.cpp":
        "#include <sys/socket.h>\n"
        "#include <netinet/tcp.h>\n"
        "#include <arpa/inet.h>\n"
        "#include <poll.h>\n"
        "void Dial() {}\n",
    # ...while src/net itself, and the *unconfined* POSIX headers anywhere
    # (<sys/resource.h> is how benches read peak RSS), stay clean.
    "src/net/sockets_allowed_clean.cpp":
        "#include <sys/socket.h>\n"
        "#include <netinet/in.h>\n"
        "#include <poll.h>\n"
        "void Listen() {}\n",
    "src/fl/resource_header_clean.cpp":
        "#include <sys/resource.h>\n"
        "void Rss() {}\n",
    # The src/net doc-comment extension must flag undocumented net headers.
    "src/net/undocumented.h": "#pragma once\nfloat NetUndocumented(int x);\n",
    # Reading hardware_concurrency or using std::this_thread is not
    # thread *construction* and stays legal everywhere (no <thread> include
    # here: the declaration is reachable via the sanctioned parallel.h).
    "src/thread_query_clean.cpp":
        "unsigned Hw() { return std::thread::hardware_concurrency(); }\n"
        "void Nap() { std::this_thread::yield(); }\n",
    # The analyzer fixture corpus is excluded from linting wholesale: this
    # file is full of violations but must produce zero hits.
    "tests/analyze_fixtures/seeded_violations_clean.cpp":
        "#include <thread>\n#include <mutex>\n"
        "int noise() { return rand() % 7; }\n",
    # Rng& is fine outside src/fl and src/core headers (data/nn/attacks keep
    # explicit stream-passing), in .cpp files, and as a local binding.
    "src/data/rng_param_clean.h":
        "#pragma once\nvoid SampleThing(int n, Rng& rng);\n",
    "src/fl/rng_local_clean.h":
        "#pragma once\n/// Doc (fl headers need doc comments too).\n"
        "inline int F(RoundContext& ctx) {\n"
        "  Rng& rng = ctx.rng;\n  return rng.NextU64() & 1;\n}\n",
    # The fl/core doc-comment extension must flag undocumented fl headers.
    "src/fl/undocumented.h": "#pragma once\nfloat AlsoUndocumented(int x);\n",
    # Doc links: a dangling relative target must be flagged; resolvable
    # relative targets, anchors, URLs and fenced code blocks must not.
    "docs/bad_links.md":
        "See [the missing page](no_such_file.md) for details.\n",
    "docs/clean_links.md":
        "A [sibling](bad_links.md), a [parent file](../README.md), an\n"
        "[anchor](#section), a [URL](https://example.com/x.md), and\n"
        "```\n[not a link](inside_code_fence.md)\n```\n",
    "README.md": "Root page: [docs](docs/clean_links.md).\n",
}


def self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="cip_lint_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for rel, content in SELF_TEST_SOURCES.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        violations = lint_tree(root)
        rules_hit = {v.rule for v in violations}
        ok = True
        for rule, rel in SELF_TEST_CASES.items():
            if rule not in rules_hit:
                print(f"self-test FAIL: rule {rule} missed seeded violation in {rel}")
                ok = False
        clean_hits = [str(v) for v in violations
                      if "clean" in pathlib.Path(v.path).name
                      or v.path in SELF_TEST_ALLOWLISTED]
        if clean_hits:
            print(f"self-test FAIL: false positives on clean file: {clean_hits}")
            ok = False
        print("self-test OK" if ok else "self-test FAILED")
        return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter detects seeded violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"cip_lint: {root} does not look like the repo root", file=sys.stderr)
        return 2
    violations = lint_tree(root)
    errors = [v for v in violations if not v.is_warning]
    warnings = [v for v in violations if v.is_warning]
    for v in errors + warnings:
        print(v)
    if warnings:
        print(f"cip_lint: {len(warnings)} warning(s) (non-fatal)")
    if errors:
        print(f"cip_lint: {len(errors)} violation(s)")
        return 1
    print("cip_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
