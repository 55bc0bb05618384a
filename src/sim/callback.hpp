// Small-buffer-optimized move-only callable for simulator events.
//
// Every message in flight is one scheduled closure; with std::function the
// typical capture (an Envelope plus a this-pointer, ~48 bytes) exceeds
// libstdc++'s 16-byte inline buffer and allocates.  SmallFn inlines up to
// kInlineBytes of capture state in the event slot itself, so scheduling a
// delivery is pointer shuffling, not heap traffic.  Oversized or
// potentially-throwing-on-move callables transparently fall back to the
// heap; behaviour is identical either way.
//
// SmallFn is what every event slot holds.  The type is move-only (closures
// holding PayloadPtr refcounts must not be silently duplicated) and
// deliberately tiny in API: construct or emplace from any void() callable,
// test for emptiness, invoke.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace dmx::sim {

namespace detail {
template <typename T>
inline constexpr bool kIsStdFunction = false;
template <typename Sig>
inline constexpr bool kIsStdFunction<std::function<Sig>> = true;
}  // namespace detail

/// True if `f` is an empty std::function: the one callable that SmallFn
/// stays empty for instead of wrapping.
template <typename F>
constexpr bool is_empty_function(const F& f) {
  if constexpr (detail::kIsStdFunction<F>) {
    return !f;
  } else {
    return false;
  }
}

class SmallFn {
 public:
  /// Room for a network-delivery closure (this + Envelope = 48 bytes) with
  /// headroom for driver/timer lambdas; measured, not sacred.
  static constexpr std::size_t kInlineBytes = 80;

  constexpr SmallFn() noexcept = default;
  constexpr SmallFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, SmallFn> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  SmallFn(F&& f) {  // NOLINT(runtime/explicit)
    emplace(std::forward<F>(f));
  }

  /// Replaces the target with a decayed copy of `f`, built directly in the
  /// inline buffer when it fits: a closure written at the call site is
  /// moved zero times on its way into an event slot.  Another SmallFn is
  /// moved in.  An empty std::function leaves this empty instead of being
  /// wrapped (callers, and tests, rely on scheduling an empty callback being
  /// rejected), and so does a constructor that throws.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<std::is_same_v<Fn, SmallFn> ||
                                        std::is_invocable_r_v<void, Fn&>>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<Fn, SmallFn>) {
      static_assert(!std::is_lvalue_reference_v<F>, "SmallFn is move-only");
      *this = std::move(f);
    } else {
      destroy();
      if (is_empty_function(f)) return;
      constexpr bool kInline = sizeof(Fn) <= kInlineBytes &&
                               alignof(Fn) <= alignof(std::max_align_t) &&
                               std::is_nothrow_move_constructible_v<Fn>;
      if constexpr (kInline) {
        obj_ = ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      } else {
        obj_ = new Fn(std::forward<F>(f));
      }
      ops_ = &OpsImpl<Fn, kInline>::kOps;
    }
  }

  SmallFn(SmallFn&& o) noexcept { move_from(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      destroy();
      move_from(o);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { destroy(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(obj_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
    /// Relocate src's target into dst_buf (inline) or steal it (heap);
    /// returns the new object pointer.  src is dead afterwards.
    void* (*relocate)(void* dst_buf, void* src) noexcept;
  };

  template <typename Fn, bool kInline>
  struct OpsImpl {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void destroy(void* p) noexcept {
      if constexpr (kInline) {
        static_cast<Fn*>(p)->~Fn();
      } else {
        delete static_cast<Fn*>(p);
      }
    }
    static void* relocate(void* dst_buf, void* src) noexcept {
      if constexpr (kInline) {
        Fn* moved = ::new (dst_buf) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
        return moved;
      } else {
        (void)dst_buf;
        return src;
      }
    }
    static constexpr Ops kOps{&invoke, &destroy, &relocate};
  };

  void move_from(SmallFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) obj_ = ops_->relocate(buf_, o.obj_);
    o.ops_ = nullptr;
    o.obj_ = nullptr;
  }

  void destroy() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(obj_);
      ops_ = nullptr;
      obj_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  void* obj_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
};

}  // namespace dmx::sim
