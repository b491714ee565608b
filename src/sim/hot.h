// Hot-path annotation macros, consumed by tools/analyze/g80211_ast.py.
//
// The steady-state packet path must not touch the heap (PR 2 removed the
// per-event allocations, PR 8 the last per-packet one). That contract is
// enforced statically: the AST contract analyzer walks the call graph
// from every G80211_HOT-annotated root and flags `new`, the std
// allocator-function family, and allocating container methods anywhere
// reachable, unless the function is explicitly excused.
//
//   G80211_HOT            marks a function as a steady-state hot-path
//                         root (scheduler drain, channel fan-out, PHY
//                         delivery tail, MAC state machine, capture
//                         record and JSONL ingest). Expands to
//                         [[gnu::hot]] so the annotation doubles as a
//                         real optimizer hint (hot functions are placed
//                         and optimized more aggressively).
//
//   G80211_ALLOC_OK(why)  first statement of a function body: this
//                         function may allocate even though it is
//                         reachable from a hot root. The reason string
//                         is mandatory and should say *why* the
//                         allocation is steady-state-safe (amortized
//                         slab growth that stops at the high-water mark,
//                         first-contact-per-peer map inserts, a cold
//                         error path). Expands to nothing at runtime.
//
// Line-granular escapes use the shared NOLINT policy instead:
// `// NOLINT(hot-path-alloc): <reason>`. See docs/static-analysis.md.
#pragma once

#define G80211_HOT [[gnu::hot]]
#define G80211_ALLOC_OK(why) ((void)0)
