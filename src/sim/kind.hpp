// Dense name <-> kind registries: the one implementation behind
// net::MsgKind (message types) and obs::EventKind (trace event types).
//
// A Kind<Tag> is a 16-bit dense index assigned once per registered name, so
// hot paths compare and index integers and only the registry boundary deals
// in names.  Each Tag gets its own process-wide KindRegistry<Tag>, with its
// own index space: a message name is never an event kind.  Every registry
// is a KindTable, implemented once out of line (kind.cpp), so interning,
// lookup and the sealed read path below are written once.
//
// A tag names its vocabulary for error messages:
//
//   struct MsgKindTag { static constexpr std::string_view kNoun = "message"; };
//   using MsgKind = sim::Kind<MsgKindTag>;
//   using MsgKindRegistry = sim::KindRegistry<MsgKindTag>;
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dmx::sim {

/// The untyped name <-> index table behind every KindRegistry<Tag>.
/// Interning is idempotent: the first registration of a name allocates the
/// next dense index and pins its category; later ones return that index.
///
/// The table has a two-phase lifecycle.  During static initialization (and
/// single-threaded setup) it is mutable under a mutex.  freeze() seals it:
/// the table becomes immutable, every lookup (and intern of an already-known
/// name) is lock-free, and intern of an *unknown* name throws
/// std::logic_error instead of mutating.  Sealing is what makes concurrent
/// simulations safe to share the table: after freeze there is no write left
/// to race with.  freeze() is idempotent and cannot be undone.
class KindTable {
 public:
  static constexpr std::uint16_t kInvalid = 0xFFFF;

  KindTable(const KindTable&) = delete;
  KindTable& operator=(const KindTable&) = delete;

  /// Number of names registered so far.
  [[nodiscard]] std::size_t size() const;

  /// Snapshot of all registered names, in index order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Seal the table: no new names, lock-free lookups from any thread.
  /// harness::freeze_registries does this before spawning sweep workers.
  void freeze();

  [[nodiscard]] bool frozen() const {
    return frozen_.load(std::memory_order_acquire);
  }

 protected:
  /// `noun` names the vocabulary in error messages ("message", "event").
  explicit KindTable(std::string_view noun) : noun_(noun) {}
  ~KindTable() = default;

  /// Register `name` under `category` (or fetch its index).  Throws
  /// std::invalid_argument on an empty name and std::length_error on
  /// exhausting the 16-bit space; on a frozen table a new name throws
  /// std::logic_error.
  std::uint16_t intern(std::string_view name, std::string_view category);

  /// Index of `name`, or kInvalid if it is not registered.
  [[nodiscard]] std::uint16_t find(std::string_view name) const;

  /// Stable name of an index; "<invalid>" for an unregistered one.
  [[nodiscard]] std::string_view name(std::uint16_t raw) const;

  /// Category the index was registered under; "" for an unregistered one.
  [[nodiscard]] std::string_view category(std::uint16_t raw) const;

 private:
  struct Entry {
    std::string name;
    std::string category;
  };

  /// Run `f` under the lock, or lock-free once the table is frozen.
  template <typename F>
  auto read(F f) const;

  std::string_view noun_;
  mutable std::mutex mu_;
  std::deque<Entry> entries_;  ///< Deque: element storage never moves.
  std::map<std::string, std::uint16_t, std::less<>> by_name_;
  /// Release-published by freeze(); an acquire load observing true
  /// guarantees visibility of every prior table write, so readers skip mu_.
  std::atomic<bool> frozen_{false};
};

template <typename Tag>
class KindRegistry;

/// Dense identifier of one name registered in KindRegistry<Tag>.
/// Default-constructed kinds are invalid and match nothing.
template <typename Tag>
class Kind {
 public:
  constexpr Kind() = default;

  [[nodiscard]] constexpr bool valid() const {
    return raw_ != KindTable::kInvalid;
  }

  /// Dense index, suitable for vector-indexed tables.  Only meaningful on a
  /// valid kind.
  [[nodiscard]] constexpr std::size_t index() const { return raw_; }

  /// Rebuild a kind from a dense index (tooling / counter translation).
  [[nodiscard]] static constexpr Kind from_index(std::size_t i) {
    return Kind(static_cast<std::uint16_t>(i));
  }

  friend constexpr bool operator==(Kind, Kind) = default;

 private:
  friend class KindRegistry<Tag>;
  constexpr explicit Kind(std::uint16_t raw) : raw_(raw) {}

  std::uint16_t raw_ = KindTable::kInvalid;
};

/// The process-wide KindTable of one vocabulary, typed by its tag: it only
/// converts between the table's indices and Kind<Tag>.
template <typename Tag>
class KindRegistry : public KindTable {
 public:
  static KindRegistry& instance() {
    static KindRegistry registry;
    return registry;
  }

  Kind<Tag> intern(std::string_view name, std::string_view category = {}) {
    return Kind<Tag>(KindTable::intern(name, category));
  }

  /// Look up a name without registering it; invalid kind if unknown.
  [[nodiscard]] Kind<Tag> find(std::string_view name) const {
    return Kind<Tag>(KindTable::find(name));
  }

  [[nodiscard]] std::string_view name(Kind<Tag> kind) const {
    return KindTable::name(kind.raw_);
  }

  [[nodiscard]] std::string_view category(Kind<Tag> kind) const {
    return KindTable::category(kind.raw_);
  }

 private:
  KindRegistry() : KindTable(Tag::kNoun) {}
};

}  // namespace dmx::sim
