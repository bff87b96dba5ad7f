#!/usr/bin/env python3
"""Project contract linter: the invariants the compiler cannot see.

Eight rules, each guarding a determinism or portability contract the
codebase documents but no compiler flag enforces on its own:

 1. AVX CONTAINMENT. AVX intrinsics (immintrin.h, __m256*, _mm256_*,
    _mm_*) appear only in src/rank/kernel_avx2.cc, and CMakeLists.txt
    attaches -mavx2 only to that file. Intrinsics anywhere else would
    give the whole binary an ISA requirement and silently break the
    runtime cpuid dispatch.
 2. KERNEL FP PINNING. CMakeLists.txt pins -ffp-contract=off onto BOTH
    kernel translation units (src/rank/kernel.cc and
    src/rank/kernel_avx2.cc). A fused multiply-add in one path but not
    the other breaks the scalar/AVX2 bitwise-equality contract.
 3. RNG DISCIPLINE. Raw randomness -- std::mt19937 engines, rand(),
    srand(), std::random_device, time(nullptr) seeding -- appears in
    src/ and tools/ only inside the sanctioned wrappers: common/rng.h
    (the seeded engine) and clean/fault.h (the dedicated fault stream's
    engine accessor). Everything else must draw through Rng, or two
    equal-seed runs stop being bitwise equal. tests/ are exempt:
    seeded std::mt19937 shuffles are a legitimate test device.
 4. NO DEPRECATION SHIMS. [[deprecated]] does not appear in src/: shims
    live exactly one PR and this repo's convention is to migrate
    callers, not to accrete compatibility layers.
 5. THREADING CONTRACTS. Every public header in src/clean/ plus
    src/rank/psr_engine.h and src/exec/thread_pool.h keeps a threading
    contract in its header comment (a line containing "Threading" or
    "threading contract"). The thread-safety annotations enforce the
    mechanics; the prose contract is the part reviewers and callers
    read.
 6. BINSTREAM CONTAINMENT. Raw binary serialization -- fwrite/fread,
    reinterpret_cast byte punning, std::ios::binary streams -- appears
    in src/ and tools/ only under src/store/, where binstream.h owns
    the little-endian wire encoding and snapshot.cc owns the file
    I/O. An ad-hoc binary writer anywhere else would bypass
    the format versioning, checksums, and endianness discipline that
    make snapshots portable and corruptions detectable.
    src/rank/kernel_avx2.cc is exempt for reinterpret_cast only: SIMD
    lane loads pun pointers in-register, never onto the wire.
 7. FD CONTAINMENT. Socket/fd primitives -- socket(2)/socketpair,
    accept/bind/listen/connect, poll, raw read(2)/write(2), shutdown --
    appear in src/ and tools/ only under src/serve/, where the
    LineServer owns the transport. Everywhere else talks protocol
    values (Request/Reply) or streams; an ad-hoc read() loop elsewhere
    would bypass the line framing, the oversize resync and the
    per-connection reply ordering the serving tests pin. tests/ and
    bench/ are exempt: driving a server end-to-end over a socketpair
    is exactly their job.
 8. COLUMN LIMIT. No line of the files CI's clang-format job formats
    (.h/.cc under src/, tests/ and bench/, .cc under tools/) is wider
    than the 80 columns .clang-format sets. clang-format itself is not
    needed to run this rule, so an over-long line fails offline too;
    every other layout difference is still clang-format's to find.

Pure stdlib. Run from the repo root (or pass it):

    python3 tools/check_contracts.py [--root DIR]
    python3 tools/check_contracts.py --self-test

Exit status 1 when any rule is violated, listing file:line for each;
--self-test builds synthetic good and bad trees in a temp dir and
verifies every rule both passes clean input and catches seeded
violations.
"""

import argparse
import os
import re
import sys
import tempfile

# ------------------------------------------------------------ helpers

AVX_ALLOWED = "src/rank/kernel_avx2.cc"
RNG_ALLOWED = {"src/common/rng.h", "src/clean/fault.h"}
THREADING_REQUIRED_EXTRA = ["src/rank/psr_engine.h", "src/exec/thread_pool.h"]

AVX_TOKEN_RE = re.compile(r"immintrin\.h|__m256|__m128|_mm256_\w+|_mm_\w+")
RNG_TOKEN_RE = re.compile(
    r"std::mt19937(?:_64)?\b|std::random_device\b"
    r"|(?<![\w:])s?rand\s*\(|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
DEPRECATED_RE = re.compile(r"\[\[\s*deprecated")
THREADING_RE = re.compile(r"[Tt]hreading")
BINSTREAM_STORE_PREFIX = "src/store/"
BINSTREAM_TOKEN_RE = re.compile(
    r"(?<![\w:])f(?:write|read)\s*\(|reinterpret_cast|std::ios::binary"
)
BINSTREAM_SIMD_EXEMPT = {AVX_ALLOWED: re.compile(r"reinterpret_cast")}
COLUMN_LIMIT = 80
# The file set of CI's `clang-format --dry-run -Werror` step: git's
# 'src/**/*.h', 'tests/*.cc', ... pathspecs, whose '*' crosses '/'.
FORMATTED_FILES = [(["src", "tests", "bench"], {".cc", ".h"}),
                   (["tools"], {".cc"})]
FD_SERVE_PREFIX = "src/serve/"
# Bare POSIX calls only: the lookbehind keeps member calls
# (stream.read(...), obj->write(...)) and qualified names out.
FD_TOKEN_RE = re.compile(
    r"(?<![\w.>:])(?:socketpair|socket|accept4?|bind|listen|connect"
    r"|poll|recv|send|read|write|shutdown)\s*\("
)


def strip_code(text):
    """Blanks comments and string/char literals, preserving line
    structure, so token rules never fire on prose or messages."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            i = min(j + 1, n)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def iter_source_files(root, subdirs, exts):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if os.path.splitext(name)[1] in exts:
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def token_lines(root, rel, pattern):
    """(lineno, match) pairs of `pattern` in code (not comments/strings)."""
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        code = strip_code(f.read())
    hits = []
    for lineno, line in enumerate(code.splitlines(), 1):
        for m in pattern.finditer(line):
            hits.append((lineno, m.group(0)))
    return hits


# ------------------------------------------------------------ rules


def check_avx_containment(root):
    failures = []
    for rel in iter_source_files(root, ["src", "tools"], {".cc", ".h"}):
        if rel == AVX_ALLOWED:
            continue
        for lineno, tok in token_lines(root, rel, AVX_TOKEN_RE):
            failures.append(
                f"{rel}:{lineno}: AVX token '{tok}' outside {AVX_ALLOWED} "
                f"(intrinsics stay in the dispatched kernel TU)"
            )
    return failures


def check_kernel_flags(root):
    failures = []
    cmake = os.path.join(root, "CMakeLists.txt")
    try:
        with open(cmake, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return [f"CMakeLists.txt: missing (kernel flag pinning unverifiable)"]

    # -mavx2 must be mentioned only in the kernel_avx2 property block:
    # every set_source_files_properties on a non-kernel_avx2 file must
    # not carry it, and no global add_compile_options may.
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0]
        if "-mavx2" in stripped and "check_cxx_compiler_flag" not in stripped:
            # The only sanctioned uses: building the UCLEAN_KERNEL_OPTIONS
            # list right before the kernel_avx2.cc property set.
            if "UCLEAN_KERNEL_OPTIONS" not in stripped:
                failures.append(
                    f"CMakeLists.txt:{lineno}: -mavx2 outside the kernel "
                    f"options block (must apply only to {AVX_ALLOWED})"
                )
    # The avx2 property block must target kernel_avx2.cc only.
    for m in re.finditer(
        r"set_source_files_properties\(\s*([^\s)]+)[^)]*?"
        r"COMPILE_OPTIONS\s+\"?\$\{UCLEAN_KERNEL_OPTIONS\}\"?",
        text,
        re.S,
    ):
        target = m.group(1)
        if target not in ("src/rank/kernel.cc", "src/rank/kernel_avx2.cc"):
            failures.append(
                f"CMakeLists.txt: kernel options applied to {target} "
                f"(only the two kernel TUs are pinned)"
            )
    # Both kernel TUs must be pinned -ffp-contract=off: the option list
    # must gain the flag before EITHER property set references it.
    if "-ffp-contract=off" not in text:
        failures.append(
            "CMakeLists.txt: -ffp-contract=off missing (kernel TUs must "
            "be pinned; FMA divergence breaks bitwise equality)"
        )
    for tu in ("src/rank/kernel.cc", "src/rank/kernel_avx2.cc"):
        if not re.search(
            r"set_source_files_properties\(\s*" + re.escape(tu), text
        ):
            failures.append(
                f"CMakeLists.txt: no set_source_files_properties for {tu} "
                f"(kernel TU lost its pinned options)"
            )
    return failures


def check_rng_discipline(root):
    failures = []
    for rel in iter_source_files(root, ["src", "tools"], {".cc", ".h"}):
        if rel in RNG_ALLOWED:
            continue
        for lineno, tok in token_lines(root, rel, RNG_TOKEN_RE):
            failures.append(
                f"{rel}:{lineno}: raw randomness '{tok}' outside "
                f"common/rng.h (draw through the seeded Rng wrapper)"
            )
    return failures


def check_no_deprecated(root):
    failures = []
    for rel in iter_source_files(root, ["src"], {".cc", ".h"}):
        for lineno, _ in token_lines(root, rel, DEPRECATED_RE):
            failures.append(
                f"{rel}:{lineno}: [[deprecated]] shim (migrate callers "
                f"instead; shims live at most one PR)"
            )
    return failures


def check_threading_contracts(root):
    failures = []
    required = [
        rel
        for rel in iter_source_files(root, ["src/clean"], {".h"})
    ] + [
        rel
        for rel in THREADING_REQUIRED_EXTRA
        if os.path.exists(os.path.join(root, rel))
    ]
    for rel in required:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        if not THREADING_RE.search(text):
            failures.append(
                f"{rel}: no threading contract in the header comment "
                f"(state the serialization/concurrency rules in prose)"
            )
    return failures


def check_binstream_containment(root):
    failures = []
    for rel in iter_source_files(root, ["src", "tools"], {".cc", ".h"}):
        if rel.startswith(BINSTREAM_STORE_PREFIX):
            continue
        exempt = BINSTREAM_SIMD_EXEMPT.get(rel)
        for lineno, tok in token_lines(root, rel, BINSTREAM_TOKEN_RE):
            if exempt is not None and exempt.fullmatch(tok):
                continue
            failures.append(
                f"{rel}:{lineno}: raw serialization token '{tok}' outside "
                f"{BINSTREAM_STORE_PREFIX} (binary encoding goes through "
                f"store/binstream.h so versioning and checksums apply)"
            )
    return failures


def check_fd_containment(root):
    failures = []
    for rel in iter_source_files(root, ["src", "tools"], {".cc", ".h"}):
        if rel.startswith(FD_SERVE_PREFIX):
            continue
        for lineno, tok in token_lines(root, rel, FD_TOKEN_RE):
            failures.append(
                f"{rel}:{lineno}: fd primitive '{tok.strip()}' outside "
                f"{FD_SERVE_PREFIX} (transport I/O goes through the "
                f"LineServer so framing and reply order stay pinned)"
            )
    return failures


def check_column_limit(root):
    failures = []
    for subdirs, exts in FORMATTED_FILES:
        for rel in iter_source_files(root, subdirs, exts):
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    width = len(line.rstrip("\r\n"))
                    if width > COLUMN_LIMIT:
                        failures.append(
                            f"{rel}:{lineno}: {width} columns, over the "
                            f"{COLUMN_LIMIT} of .clang-format (CI's "
                            f"clang-format --dry-run -Werror rejects it)"
                        )
    return failures


RULES = [
    ("avx-containment", check_avx_containment),
    ("kernel-fp-pinning", check_kernel_flags),
    ("rng-discipline", check_rng_discipline),
    ("no-deprecated-shims", check_no_deprecated),
    ("threading-contracts", check_threading_contracts),
    ("binstream-containment", check_binstream_containment),
    ("fd-containment", check_fd_containment),
    ("column-limit", check_column_limit),
]


def run_checks(root):
    failures = []
    for name, rule in RULES:
        for failure in rule(root):
            failures.append((name, failure))
    return failures


# ------------------------------------------------------------ self-test


def _write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


GOOD_CMAKE = """\
check_cxx_compiler_flag("-mavx2" UCLEAN_COMPILER_HAS_MAVX2)
set(UCLEAN_KERNEL_OPTIONS "")
list(APPEND UCLEAN_KERNEL_OPTIONS "-ffp-contract=off")
set_source_files_properties(src/rank/kernel.cc PROPERTIES
    COMPILE_OPTIONS "${UCLEAN_KERNEL_OPTIONS}")
list(APPEND UCLEAN_KERNEL_OPTIONS "-mavx2")
set_source_files_properties(src/rank/kernel_avx2.cc PROPERTIES
    COMPILE_OPTIONS "${UCLEAN_KERNEL_OPTIONS}")
"""


def _build_good_tree(root):
    _write(root, "CMakeLists.txt", GOOD_CMAKE)
    _write(
        root,
        "src/rank/kernel_avx2.cc",
        "#include <immintrin.h>\n__m256d v = _mm256_setzero_pd();\n"
        "// SIMD lane load: the one sanctioned reinterpret_cast outside\n"
        "// src/store/ (in-register pun, never the wire).\n"
        "auto* lanes = reinterpret_cast<const __m128i*>(nullptr);\n",
    )
    _write(root, "src/rank/kernel.cc", "// scalar kernel\n")
    _write(
        root,
        "src/common/rng.h",
        "// Threading: stateful, serialized caller.\n"
        "#include <random>\nstd::mt19937_64 engine_;\n",
    )
    _write(
        root,
        "src/clean/fault.h",
        "// Threading: serialized caller, like the session Rng.\n"
        "const std::mt19937_64& engine() const;\n",
    )
    _write(
        root,
        "src/clean/session.h",
        "// Threading: SERIALIZED CALLER.\nclass CleaningSession {};\n",
    )
    _write(
        root,
        "src/clean/ok.cc",
        '// a comment saying std::mt19937 and rand() is fine\n'
        'const char* msg = "std::random_device in a string is fine";\n',
    )
    _write(
        root,
        "src/store/binstream.h",
        "// The sanctioned home of raw serialization.\n"
        "std::ofstream out(path, std::ios::binary);\n"
        "out.write(reinterpret_cast<const char*>(data), size);\n",
    )
    _write(
        root,
        "src/serve/server.cc",
        "// The sanctioned home of transport I/O.\n"
        "int n = poll(fds, count, -1);\n"
        "ssize_t got = read(fd, buf, len);\n"
        "ssize_t put = write(fd, out, len);\n"
        "shutdown(fd, SHUT_WR);\n",
    )
    _write(
        root,
        "src/model/ok_members.cc",
        "// Member calls are not fd primitives.\n"
        "void Load() { stream.read(buf, n); out->write(buf, n); }\n",
    )
    _write(root, "tests/shuffle_test.cc", "std::mt19937 rng(7);\n")
    # Exactly at the column limit, and wider where no rule formats.
    _write(root, "src/model/wide.h", "// " + "w" * (COLUMN_LIMIT - 3) + "\n")
    _write(root, "tools/wide.py", "# " + "w" * COLUMN_LIMIT + "\n")
    _write(
        root,
        "tests/wire_test.cc",
        "// tests drive servers over socketpairs; exempt.\n"
        "int rc = socketpair(AF_UNIX, SOCK_STREAM, 0, sv);\n"
        "ssize_t n = read(sv[0], chunk, sizeof(chunk));\n",
    )


def self_test():
    failed = []

    with tempfile.TemporaryDirectory() as root:
        _build_good_tree(root)
        failures = run_checks(root)
        if failures:
            failed.append(f"good tree should pass, got: {failures}")

    # Each seeded violation must be caught by exactly the right rule.
    violations = [
        (
            "avx-containment",
            "src/rank/psr.cc",
            "#include <immintrin.h>\n__m256d v;\n",
        ),
        (
            "avx-containment",
            "tools/fast.cc",
            "auto x = _mm256_add_pd(a, b);\n",
        ),
        (
            "rng-discipline",
            "src/clean/sneaky.cc",
            "#include <random>\nstd::mt19937 gen(std::random_device{}());\n",
        ),
        (
            "rng-discipline",
            "src/quality/seed.cc",
            "unsigned s = time(nullptr); srand(s);\n",
        ),
        (
            "no-deprecated-shims",
            "src/rank/shim.h",
            "[[deprecated(\"use the request API\")]] void OldCall();\n",
        ),
        (
            "threading-contracts",
            "src/clean/new_component.h",
            "// A header with no contract prose at all.\nclass C {};\n",
        ),
        (
            "binstream-containment",
            "src/model/dump.cc",
            "void Dump(FILE* f) { fwrite(&hdr, sizeof(hdr), 1, f); }\n",
        ),
        (
            "binstream-containment",
            "src/clean/punned.cc",
            "auto* raw = reinterpret_cast<const char*>(&record);\n",
        ),
        (
            "binstream-containment",
            "tools/export.cc",
            "std::ofstream out(path, std::ios::binary);\n",
        ),
        (
            "fd-containment",
            "src/clean/peek.cc",
            "void Peek(int fd) { char b[64]; read(fd, b, sizeof(b)); }\n",
        ),
        (
            "fd-containment",
            "tools/netcat.cc",
            "int s = socket(AF_INET, SOCK_STREAM, 0);\n"
            "connect(s, addr, len);\n",
        ),
        (
            "column-limit",
            "tests/compile_fail/wide.cc",
            "int ok = 0;\n// " + "w" * (COLUMN_LIMIT - 2) + "\n",
        ),
    ]
    for rule_name, rel, text in violations:
        with tempfile.TemporaryDirectory() as root:
            _build_good_tree(root)
            _write(root, rel, text)
            hits = [name for name, _ in run_checks(root)]
            if rule_name not in hits:
                failed.append(
                    f"seeded violation in {rel} not caught by {rule_name} "
                    f"(rules that fired: {sorted(set(hits))})"
                )

    # CMake violations: -mavx2 leaking to a global option, and a kernel
    # TU losing its pinned flags.
    cmake_violations = [
        GOOD_CMAKE + 'add_compile_options("-mavx2")\n',
        GOOD_CMAKE.replace('list(APPEND UCLEAN_KERNEL_OPTIONS '
                           '"-ffp-contract=off")\n', ""),
        GOOD_CMAKE.replace(
            "set_source_files_properties(src/rank/kernel.cc PROPERTIES\n"
            '    COMPILE_OPTIONS "${UCLEAN_KERNEL_OPTIONS}")\n',
            "",
        ),
    ]
    for text in cmake_violations:
        with tempfile.TemporaryDirectory() as root:
            _build_good_tree(root)
            _write(root, "CMakeLists.txt", text)
            hits = [name for name, _ in run_checks(root)]
            if "kernel-fp-pinning" not in hits and "avx-containment" not in hits:
                failed.append(
                    f"seeded CMake violation not caught; cmake was:\n{text}"
                )

    if failed:
        print("SELF-TEST FAILURES:")
        for f in failed:
            print(f"  FAIL {f}")
        return 1
    print(f"self-test passed: {len(violations) + len(cmake_violations) + 1} "
          f"scenarios across {len(RULES)} rules")
    return 0


# ------------------------------------------------------------ main


def main(argv):
    parser = argparse.ArgumentParser(
        description="uclean project contract linter"
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's parent's parent)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify every rule on synthetic good/bad trees and exit",
    )
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return self_test()

    failures = run_checks(args.root)
    if failures:
        print("CONTRACT VIOLATIONS:")
        for name, failure in failures:
            print(f"  FAIL [{name}] {failure}")
        return 1
    print(f"all {len(RULES)} contract rules hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
