// Message payloads and envelopes.
//
// Payloads are immutable, polymorphic and reference-counted: broadcasting one
// NEW-ARBITER message to N-1 nodes shares a single allocation.  Every payload
// type carries a dense MsgKind (see msg_kind.hpp) assigned once per type, so
// algorithms dispatch on an integer table index instead of a dynamic_cast
// chain, and per-type statistics index a vector instead of hashing a string.
// Concrete payloads derive from the CRTP base Msg<T> and bind their wire name
// with DMX_REGISTER_MESSAGE(T, "NAME"); type_name() is a registry lookup and
// is intended for cold paths only (traces, tables, configuration).
//
// Memory plane (net/pool.hpp): payloads carry an intrusive refcount
// instead of a shared_ptr control block and are allocated by make_payload<T>
// from a size-bucketed slab pool, so the steady-state message path performs
// zero heap allocations and a broadcast stays one allocation total.  The
// refcount is deliberately non-atomic: a payload lives and dies on the one
// thread that runs its simulation (the sweep runner's confinement
// invariant), so there is nothing to synchronize.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "net/msg_kind.hpp"
#include "net/node_id.hpp"
#include "net/pool.hpp"
#include "sim/time.hpp"

namespace dmx::net {

class PayloadPtr;
template <typename T>
class MutPayload;
template <typename T, typename... Args>
PayloadPtr make_payload(Args&&... args);
template <typename T, typename... Args>
MutPayload<T> make_payload_mut(Args&&... args);

/// Base class for all message payloads.  Subclasses should be immutable
/// value bags deriving from Msg<T> below.
class Payload {
 public:
  virtual ~Payload() = default;

  /// Dense message kind; the hot-path identity of this payload's type.
  [[nodiscard]] MsgKind kind() const { return kind_; }

  /// Stable message-type name, e.g. "REQUEST" or "PRIVILEGE".  Registry
  /// lookup — cold paths only (statistics tables, trace output).
  [[nodiscard]] std::string_view type_name() const {
    return MsgKindRegistry::instance().name(kind_);
  }

  /// Human-readable content summary for traces; defaults to the type name.
  [[nodiscard]] virtual std::string describe() const {
    return std::string(type_name());
  }

  /// Approximate serialized size in abstract bytes.  Delay models may use it;
  /// the paper's constant-delay model ignores it.
  [[nodiscard]] virtual std::size_t size_hint() const { return 16; }

  /// The payload that fault configuration should match against.  Transport
  /// frames carrying an inner algorithm message (see
  /// net/reliable_transport.hpp) return the inner payload, so per-type loss
  /// ("loss PRIVILEGE=0.2") and targeted faults ("lose-next PRIVILEGE")
  /// keep addressing logical protocol messages regardless of transport.
  [[nodiscard]] virtual const Payload& fault_target() const { return *this; }

 protected:
  explicit Payload(MsgKind kind) : kind_(kind) {}
  // Copies are fresh objects: identity (refcount, allocation bucket) stays.
  Payload(const Payload& o) : kind_(o.kind_) {}
  Payload& operator=(const Payload&) { return *this; }

 private:
  friend class PayloadPtr;
  template <typename T, typename... Args>
  friend PayloadPtr make_payload(Args&&... args);
  template <typename T>
  friend class MutPayload;
  template <typename T, typename... Args>
  friend MutPayload<T> make_payload_mut(Args&&... args);

  MsgKind kind_;
  std::uint8_t bucket_ = kHeapBucket;  ///< Pool bucket owning *this.
  mutable std::uint32_t refs_ = 0;  ///< Intrusive count; thread-confined.
};

/// CRTP base wiring a payload type to its registered kind.  Derived types
/// must contain DMX_REGISTER_MESSAGE(Derived, "NAME") in their class body.
template <typename Derived>
class Msg : public Payload {
 protected:
  Msg() : Payload(Derived::message_kind()) {
    (void)kEagerKind;  // odr-use: registers the kind at static-init time
  }

 private:
  /// Forces registration during static initialization so name-keyed
  /// configuration (loss tables, one-shot drops) can be validated against
  /// every linked message type before any message is constructed.
  static inline const MsgKind kEagerKind = Derived::message_kind();
};

/// Intrusive shared owner of an immutable payload.  Mirrors the subset of
/// the shared_ptr surface the codebase uses; copying is one non-atomic
/// increment, no control block exists, and destruction hands the block back
/// to the pool bucket recorded in the payload itself.
class PayloadPtr {
 public:
  constexpr PayloadPtr() noexcept = default;
  constexpr PayloadPtr(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)
  PayloadPtr(const PayloadPtr& o) noexcept : p_(o.p_) { retain(p_); }
  PayloadPtr(PayloadPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  PayloadPtr& operator=(const PayloadPtr& o) noexcept {
    retain(o.p_);  // before release: self-assignment safe
    release(p_);
    p_ = o.p_;
    return *this;
  }
  PayloadPtr& operator=(PayloadPtr&& o) noexcept {
    if (this != &o) {
      release(p_);
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  PayloadPtr& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  ~PayloadPtr() { release(p_); }

  void reset() noexcept {
    release(p_);
    p_ = nullptr;
  }
  void swap(PayloadPtr& o) noexcept { std::swap(p_, o.p_); }

  [[nodiscard]] const Payload* get() const noexcept { return p_; }
  const Payload& operator*() const noexcept { return *p_; }
  const Payload* operator->() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  friend bool operator==(const PayloadPtr& a, const PayloadPtr& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator==(const PayloadPtr& a, std::nullptr_t) noexcept {
    return a.p_ == nullptr;
  }

 private:
  template <typename T, typename... Args>
  friend PayloadPtr make_payload(Args&&... args);
  template <typename T>
  friend class MutPayload;

  /// Takes ownership of a reference the caller already holds (no retain).
  static PayloadPtr adopt(const Payload* p) noexcept {
    PayloadPtr r;
    r.p_ = p;
    return r;
  }
  /// Shares an existing live object (+1).
  static PayloadPtr share(const Payload* p) noexcept {
    PayloadPtr r;
    r.p_ = p;
    retain(p);
    return r;
  }

  static void retain(const Payload* p) noexcept {
    if (p) ++p->refs_;
  }
  static void release(const Payload* p) noexcept {
    if (p && --p->refs_ == 0) destroy(p);
  }
  static void destroy(const Payload* p) noexcept {
    // Payload is the primary (offset-0) base of every message type, so the
    // Payload* is also the start of the allocation; make_payload asserts it.
    const std::uint8_t bucket = p->bucket_;
    void* mem = const_cast<void*>(static_cast<const void*>(p));
    p->~Payload();
    PayloadAlloc::deallocate(mem, bucket);
  }

  const Payload* p_ = nullptr;
};

/// Convenience factory: make_payload<Req>(args...) -> PayloadPtr.  One pool
/// allocation; the payload records its bucket so release needs no lookup.
template <typename T, typename... Args>
PayloadPtr make_payload(Args&&... args) {
  static_assert(std::is_base_of_v<Payload, T>);
  std::uint8_t bucket = kHeapBucket;
  void* mem = PayloadAlloc::allocate(sizeof(T), bucket);
  T* obj;
  try {
    obj = ::new (mem) T(std::forward<Args>(args)...);
  } catch (...) {
    PayloadAlloc::deallocate(mem, bucket);
    throw;
  }
  assert(static_cast<const void*>(static_cast<const Payload*>(obj)) == mem);
  obj->bucket_ = bucket;
  obj->refs_ = 1;
  return PayloadPtr::adopt(obj);
}

/// Exclusive handle to a payload under construction: protocol code that
/// builds a message field-by-field does
///
///   auto msg = make_payload_mut<PrivilegeMsg>();
///   msg->q = ...;
///   send(dst, std::move(msg));
///
/// Converting to PayloadPtr freezes the message (the const view); moving the
/// handle into the conversion transfers the reference with no count churn.
template <typename T>
class MutPayload {
 public:
  MutPayload(MutPayload&& o) noexcept : obj_(o.obj_) { o.obj_ = nullptr; }
  MutPayload(const MutPayload&) = delete;
  MutPayload& operator=(const MutPayload&) = delete;
  MutPayload& operator=(MutPayload&&) = delete;
  ~MutPayload() { PayloadPtr::release(obj_); }

  T* operator->() noexcept { return obj_; }
  T& operator*() noexcept { return *obj_; }

  // NOLINTNEXTLINE(runtime/explicit): implicit freeze is the point.
  operator PayloadPtr() const& noexcept { return PayloadPtr::share(obj_); }
  operator PayloadPtr() && noexcept {
    const T* p = obj_;
    obj_ = nullptr;
    return PayloadPtr::adopt(p);
  }

 private:
  template <typename U, typename... Args>
  friend MutPayload<U> make_payload_mut(Args&&... args);
  explicit MutPayload(T* adopted) noexcept : obj_(adopted) {}

  T* obj_;
};

/// make_payload, but the caller may still mutate the object before sending.
template <typename T, typename... Args>
MutPayload<T> make_payload_mut(Args&&... args) {
  static_assert(std::is_base_of_v<Payload, T>);
  std::uint8_t bucket = kHeapBucket;
  void* mem = PayloadAlloc::allocate(sizeof(T), bucket);
  T* obj;
  try {
    obj = ::new (mem) T(std::forward<Args>(args)...);
  } catch (...) {
    PayloadAlloc::deallocate(mem, bucket);
    throw;
  }
  assert(static_cast<const void*>(static_cast<const Payload*>(obj)) == mem);
  obj->bucket_ = bucket;
  obj->refs_ = 1;
  return MutPayload<T>(obj);
}

/// Typed view of a payload; nullptr if the payload is of a different type.
/// Kind-checked static downcast — no RTTI.
template <typename T>
const T* payload_cast(const PayloadPtr& p) {
  if (!p || p->kind() != T::message_kind()) return nullptr;
  return static_cast<const T*>(p.get());
}

/// A payload in flight (or delivered) together with its routing metadata.
struct Envelope {
  NodeId src;
  NodeId dst;
  sim::SimTime sent_at;
  sim::SimTime delivered_at;
  std::uint64_t msg_id = 0;  ///< Unique per transmission (per destination).
  PayloadPtr payload;

  template <typename T>
  [[nodiscard]] const T* as() const {
    return payload_cast<T>(payload);
  }
};

/// Interface for anything attached to the network that can receive messages.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void on_message(const Envelope& env) = 0;
};

}  // namespace dmx::net
