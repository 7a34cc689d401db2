#pragma once
// xct_lint: repo-specific static analysis (DESIGN.md §3d, §3i).
//
// Eight rules, each motivated by a bug class this codebase is prone to:
//
//  * names     — every string literal passed to a telemetry / fault-site
//                call (counter, gauge, ScopedTrace, faults::check, ...)
//                must be registered in src/core/names.hpp, either exactly
//                or under a registered prefix (entries ending in '.').
//                Unregistered names silently fork the metric namespace.
//  * rawmem    — no raw `new` / `malloc` / `reinterpret_cast` outside the
//                whitelisted serialization layer: everything else owns
//                memory through containers and views it through spans.
//  * intloop   — no `int` induction variable feeding a multiplication:
//                flat indices like (k*Ny + j)*Nx + i overflow 32-bit
//                arithmetic on >2G-voxel volumes; loops that multiply
//                must run in index_t (see core/types.hpp static_assert).
//  * mutex     — no raw std::mutex / std::condition_variable outside
//                core/mutex.hpp (use the capability-annotated wrappers),
//                and every declared `Mutex` member must be referenced by
//                at least one XCT_* thread-safety annotation in the same
//                file, so -Wthread-safety actually has edges to check.
//  * ids       — no raw `index_t` / `int` declaration named rank / group /
//                view / slab / job outside core/ids.hpp and the minimpi
//                boundary (which speaks raw world ranks, like MPI): those
//                quantities have strong types in core/ids.hpp, and a raw
//                declaration reopens the cross-axis confusion the types
//                exist to close (passing a world rank where a group index
//                was meant compiles fine with index_t everywhere).
//  * json      — no string literal spelling a JSON member name
//                (`"ident":`, escaped or raw) outside src/core/json.*:
//                JSON is written through core/json's one Writer, so the
//                escaping, number format and layout cannot fork again.
//  * lockorder — nested MutexLock / UniqueLock acquisitions form a
//                directed lock graph; any cycle in the whole-program
//                graph is a potential deadlock and fails the lint.
//                Reviewed intentional edges live in
//                tools/xct_lint/lockorder_allow.txt.
//  * deadname  — every constant registered in src/core/names.hpp must be
//                referenced from code somewhere in the scanned set; an
//                unreferenced name is a stale registration that makes the
//                registry lie about what the system can emit.
//
// The checker is a token-level scanner, not a compiler: it strips
// comments and string/char literals first (so prose never trips rules),
// then applies per-rule pattern matching on the blanked source.  That
// keeps it free of compiler dependencies (its only library is xct_core,
// for the compile database's JSON) and fast enough to run as a ctest on
// every build.
//
// Two drivers feed the rules:
//   lint_tree        — recursive directory walk (the v1 driver);
//   lint_compile_db  — compile_commands.json-driven: lints exactly the
//                      TUs the build compiles plus every repo-local
//                      header they reach through quoted includes, so a
//                      file the build has abandoned stops being linted
//                      and a newly wired one is picked up with no lint
//                      configuration change.
// Whole-program rules (lockorder, deadname) run over the collected file
// set in both drivers.

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace xct_lint {

/// One rule violation at a specific source line.
struct Violation {
    std::string file;  ///< path relative to the scanned root
    int line = 0;      ///< 1-based
    std::string rule;  ///< "names" | "rawmem" | "intloop" | "mutex" |
                       ///< "ids" | "json" | "lockorder" | "deadname"
    std::string message;
};

/// The registered telemetry / fault-site name set from core/names.hpp.
struct Registry {
    std::vector<std::string> exact;     ///< complete names
    std::vector<std::string> prefixes;  ///< entries ending in '.' allow any suffix

    /// True when `name` is registered exactly or extends a registered prefix.
    bool allows(const std::string& name) const;
};

/// Extract the registry from names.hpp source text: every string literal
/// initialising a `constexpr const char* k...` constant is registered.
Registry parse_registry(const std::string& names_hpp_source);

/// One nested lock acquisition: a MutexLock/UniqueLock taken while the
/// guard on `from` was still live in an enclosing scope.  Nodes are the
/// guarded expressions, normalised (whitespace stripped, `->` folded to
/// `.`, leading `this.` dropped) so `st->m` and `st.m` are one node.
struct LockEdge {
    std::string from;  ///< outer (already held) mutex expression
    std::string to;    ///< inner (newly acquired) mutex expression
    std::string file;  ///< where the inner acquisition happens
    int line = 0;      ///< 1-based line of the inner acquisition
};

/// Scan one file for nested MutexLock / UniqueLock acquisitions.
/// core/mutex.hpp and core/lockorder.* (the wrappers themselves) and the
/// lint's own sources are skipped.
std::vector<LockEdge> extract_lock_edges(const std::string& rel, const std::string& source);

/// Cycle-check the whole-program lock graph.  `whitelist` holds reviewed
/// edges as "from -> to" lines ('#' starts a comment); a cycle made
/// entirely of whitelisted edges is accepted.  Returns one violation per
/// cycle, anchored at the acquisition that closes it.
std::vector<Violation> check_lock_graph(const std::vector<LockEdge>& edges,
                                        const std::vector<std::string>& whitelist);

/// Lint a single file's source text (per-file rules only).  `rel` is the
/// path reported in violations and matched against per-rule whitelists.
std::vector<Violation> lint_source(const std::string& rel, const std::string& source,
                                   const Registry& reg);

/// A scanned file: (path relative to the root, source text).
using FileSet = std::vector<std::pair<std::string, std::string>>;

/// Run every rule — per-file and whole-program — over an explicit file
/// set.  The registry is read from root/src/core/names.hpp and the lock
/// whitelist from root/tools/xct_lint/lockorder_allow.txt (when present).
/// The deadname rule runs only when the set contains names.hpp itself.
std::vector<Violation> lint_files(const std::filesystem::path& root, const FileSet& files);

/// Walk `root`/dir for each dir, linting every .hpp/.cpp found (skipping
/// any path containing "lint_fixtures").
std::vector<Violation> lint_tree(const std::filesystem::path& root,
                                 const std::vector<std::string>& dirs);

/// Lint the TUs listed in a compile_commands.json plus every repo-local
/// header reachable from them through `#include "..."` (deduplicated).
/// Files outside `root` (system headers, fetched deps) are ignored, as
/// is anything outside the `scopes` top-level directories — the compile
/// database also lists test TUs, which are not part of the lint contract.
std::vector<Violation> lint_compile_db(
    const std::filesystem::path& root, const std::filesystem::path& compile_db,
    const std::vector<std::string>& scopes = {"src", "tools", "bench"});

/// Render violations one per line: `file:line: [rule] message`.
std::string format(const std::vector<Violation>& violations);

}  // namespace xct_lint
