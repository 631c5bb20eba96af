// Function-level summary infrastructure for incremental interprocedural
// analysis. Three pieces live here:
//
//   1. Content addressing: hashFunction() walks a function's canonical
//      SSA form (opcodes, operands by position, type layouts, annotation
//      flags — never source locations or comments) into an FNV hasher,
//      and computeFunctionKeys() combines those body hashes Merkle-style
//      over the call graph's SCCs, so a function's key pins its own body
//      plus the keys of everything it (transitively) calls. Editing one
//      function invalidates exactly its dependency cone up the call
//      graph; a comment-only edit invalidates nothing.
//
//   2. Positional naming: memo blobs must not contain raw pointers or
//      module-wide ids (both shift between runs), so they name a local
//      value by (owner function, position), where the position is
//      Value::id() - Function::firstLocalId() (arguments first, then
//      instructions in block order). ModuleIndex turns values into such
//      pairs and back. stableObjectName() does the same for alias
//      objects, whose ObjId allocation order is not reproducible across
//      runs.
//
//   3. The memo seam: each interprocedural fixpoint treats its
//      per-function local solve as a deterministic state transformer.
//      Before running it, the phase digests the transformer's full input
//      (the read set and the pre-state of the write set) and asks its
//      SummaryBank for a recorded result under (function key, digest); a
//      hit replays the captured post-state byte-for-byte instead of
//      re-solving. This is exact memoization — the fixpoint driver loop
//      still runs, so convergence and final state are identical to a
//      cold run by construction.
//
// The persistent store behind SummaryBank lives in
// src/safeflow/summary_store.h; this header is IR-level only.
#pragma once

#include <cstdint>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

#include "ir/callgraph.h"
#include "ir/ir.h"
#include "support/cache.h"

namespace safeflow::analysis {

class AliasAnalysis;
using ObjId = int;

/// Cross-run names for function-local values: (owner function, position)
/// pairs, stable as long as the function body is unchanged — which is
/// exactly the regime in which memo blobs are replayed, because the blob
/// is keyed by the body hash. Reads the numbering of a promoted module
/// (ir::Module::numberValues); holds no per-value state.
class ModuleIndex {
 public:
  explicit ModuleIndex(const ir::Module& module) : module_(module) {}

  /// Owner function and position of a local value; {nullptr, -1} for
  /// constants, globals, and other non-local values.
  [[nodiscard]] std::pair<const ir::Function*, int> locate(
      const ir::Value* v) const;
  /// Live value at (function name, position), or nullptr.
  [[nodiscard]] const ir::Value* resolve(const std::string& fn_name,
                                         int id) const;
  [[nodiscard]] const ir::Function* function(const std::string& name) const {
    return module_.findFunction(name);
  }
  [[nodiscard]] const ir::Module& module() const { return module_; }

 private:
  const ir::Module& module_;
};

/// The entries of a map keyed by value id that belong to fn's arguments
/// and instructions, in position order.
template <typename Map>
[[nodiscard]] auto localEntries(const Map& map, const ir::Function& fn) {
  return std::ranges::subrange(
      map.lower_bound(fn.firstLocalId()),
      map.lower_bound(fn.firstLocalId() + fn.localCount()));
}

/// Digest-building helpers shared by the phases: every token is followed
/// by a unit separator so adjacent fields can never alias ("ab"+"c" vs
/// "a"+"bc").
inline constexpr std::string_view kTokenSeparator = "\x1f";
inline void hashToken(support::Fnv1a& h, std::string_view s) {
  h.update(s);
  h.update(kTokenSeparator);
}
/// Numbers hash as fixed-width little-endian bytes: self-delimiting
/// without a separator and, unlike std::to_string, allocation-free —
/// these run once per value per fixpoint visit, so they are the hot
/// path of every warm digest probe.
inline void hashInt(support::Fnv1a& h, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((u >> (8 * i)) & 0xff);
  }
  h.update(std::string_view(bytes, sizeof bytes));
}
inline void hashUint(support::Fnv1a& h, std::uint64_t v) {
  hashInt(h, static_cast<std::int64_t>(v));
}

/// Streams a type's layout semantics (kind, size, signedness, struct
/// field offsets/sizes, pointee shape) into the hasher. Recursion is
/// depth-limited so self-referential structs terminate; beyond the limit
/// only kind+size are hashed, which still changes whenever a layout edit
/// changes anything an analysis can observe at that depth.
void hashType(const ir::Type* type, support::Fnv1a& h, int depth = 0);

/// Streams the function's canonical SSA bytes into the hasher: name,
/// annotation flags, argument types, then every instruction's opcode,
/// payloads, result type, and operands (locals by position, constants by
/// value, globals by name). Source locations are deliberately
/// excluded, so comment/whitespace edits hash identically.
void hashFunction(const ir::Function& fn, support::Fnv1a& h);

/// Merkle key per defined function: 16-hex FNV over the configuration
/// fingerprint, the SCC members' body hashes, and the keys of all
/// external callees. Members of one SCC share a component hash (they are
/// solved together) but get distinct final keys. Indexed by
/// ir::Function::index(); empty for functions without a key (undefined
/// functions and intrinsics).
using FunctionKeyMap = std::vector<std::string>;
[[nodiscard]] FunctionKeyMap computeFunctionKeys(
    const ir::Module& module, const ir::CallGraph& callgraph,
    std::string_view config_fingerprint);

/// Where a phase looks up / records per-function memo blobs. The store
/// behind it decides persistence, eviction, and corruption handling.
class SummaryBank {
 public:
  virtual ~SummaryBank() = default;
  /// Recorded blob for (fn, input digest), or nullptr on miss. The
  /// returned pointer is valid until the next record() for this fn.
  virtual const std::string* find(const ir::Function& fn,
                                  std::uint64_t digest) = 0;
  virtual void record(const ir::Function& fn, std::uint64_t digest,
                      std::string blob) = 0;
};

/// Handed to each interprocedural phase; default-constructed (null bank)
/// means memoization is off and the phase behaves exactly as before.
struct PhaseMemoHooks {
  SummaryBank* bank = nullptr;
  const ModuleIndex* index = nullptr;
  [[nodiscard]] bool enabled() const {
    return bank != nullptr && index != nullptr;
  }
};

/// Length-prefixed text codec for memo blobs. Text (not raw structs) so
/// torn or version-skewed entries fail parsing loudly instead of
/// misreading, and blobs stay diffable when debugging.
class BlobWriter {
 public:
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void str(std::string_view s);
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class BlobReader {
 public:
  explicit BlobReader(std::string_view data) : data_(data) {}

  std::uint64_t u64();
  std::int64_t i64();
  std::string str();
  /// False once any read ran off the end or hit malformed framing; reads
  /// after a failure return zero/empty.
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool atEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view token();

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Cross-run stable name for an alias object: regions by id, globals by
/// name, allocas by owner function + position, fields by parent + index.
[[nodiscard]] std::string stableObjectName(const AliasAnalysis& alias,
                                           const ModuleIndex& index,
                                           ObjId obj);

}  // namespace safeflow::analysis
