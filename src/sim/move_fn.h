// MoveFn: the move-only callback template behind the simulator's event and
// completion types.
//
// The emulator's hot paths hand callbacks across layers millions of times per
// simulated second — event bodies, DMA completions, file-IO continuations,
// KVS op callbacks. std::function was wrong for all of them twice over: it
// requires copy-constructible callables (forcing byte-vector and
// proto::Message captures to be copyable, which invites silent copies and
// shared_ptr wrappers), and its 16-byte inline buffer is too small for a
// typical "this + a few words + a nested completion" capture, so nearly every
// callback paid a heap allocation.
//
// MoveFn<Sig, InlineBytes> is move-only and stores any callable whose size is
// at most InlineBytes directly inline (static_assert-guarded — the inline
// promise is checked at compile time, not hoped for). Larger callables fall
// back to a single heap allocation, same as std::function, but may capture
// move-only state (unique_ptr, a moved buffer) which std::function cannot
// hold at all. Pick InlineBytes per signature: big enough for the layer's
// worst-case capture, small enough that a MoveFn nested inside another
// capture doesn't push the outer one past its own inline budget.
#ifndef SRC_SIM_MOVE_FN_H_
#define SRC_SIM_MOVE_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lastcpu::sim {

template <typename Sig, size_t InlineBytes = 48>
class MoveFn;  // undefined; only the function-signature specialization exists

template <typename R, typename... Args, size_t InlineBytes>
class MoveFn<R(Args...), InlineBytes> {
 public:
  // Captures up to this many bytes are stored inline, with no allocation.
  static constexpr size_t kInlineBytes = InlineBytes;
  // Whether a callable of type F is stored inline: it must fit the buffer
  // and move without throwing. A capture copied from a `const std::string&`
  // is a const string, whose move copies and may throw, so it falls back to
  // the heap whatever its size; hot call sites static_assert this.
  template <typename F>
  static constexpr bool StoresInline() {
    return StoredInline<std::decay_t<F>>();
  }

  MoveFn() = default;
  MoveFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, MoveFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  MoveFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(fn));
  }

  // Converting assignment constructs the callable directly in this object's
  // storage — an `event.fn = lambda` never materializes a MoveFn temporary
  // just to relocate it. The scheduling hot path leans on this.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, MoveFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  MoveFn& operator=(F&& fn) {
    Reset();
    Emplace(std::forward<F>(fn));
    return *this;
  }

  MoveFn(MoveFn&& other) noexcept { MoveFrom(other); }
  MoveFn& operator=(MoveFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  MoveFn& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  MoveFn(const MoveFn&) = delete;
  MoveFn& operator=(const MoveFn&) = delete;

  ~MoveFn() { Reset(); }

  // Const like std::function's call operator (the callable itself is deemed
  // logically state-free), so callbacks can be invoked from non-mutable
  // lambda captures.
  R operator()(Args... args) const {
    return vtable_->invoke(const_cast<unsigned char*>(storage_), std::forward<Args>(args)...);
  }

  explicit operator bool() const { return vtable_ != nullptr; }
  friend bool operator==(const MoveFn& fn, std::nullptr_t) { return fn.vtable_ == nullptr; }
  friend bool operator!=(const MoveFn& fn, std::nullptr_t) { return fn.vtable_ != nullptr; }

 private:
  static constexpr size_t kStorageAlign = alignof(std::max_align_t);

  struct VTable {
    R (*invoke)(unsigned char* storage, Args&&... args);
    // Move-constructs dst's storage from src's and destroys src's object.
    void (*relocate)(unsigned char* dst, unsigned char* src);
    void (*destroy)(unsigned char* storage);
  };

  template <typename F, typename D = std::decay_t<F>>
  void Emplace(F&& fn) {
    if constexpr (StoredInline<D>()) {
      static_assert(sizeof(D) <= kInlineBytes,
                    "callable advertised as inline does not fit the buffer");
      static_assert(alignof(D) <= kStorageAlign,
                    "callable advertised as inline is over-aligned");
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vtable_ = &kInlineVTable<D>;
    } else {
      *AsPtrSlot() = new D(std::forward<F>(fn));
      vtable_ = &kHeapVTable<D>;
    }
  }

  template <typename D>
  static constexpr bool StoredInline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= kStorageAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static D* AsInline(unsigned char* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }

  void** AsPtrSlot() { return reinterpret_cast<void**>(storage_); }

  template <typename D>
  static constexpr VTable kInlineVTable = {
      [](unsigned char* storage, Args&&... args) -> R {
        return (*AsInline<D>(storage))(std::forward<Args>(args)...);
      },
      [](unsigned char* dst, unsigned char* src) {
        if constexpr (std::is_trivially_copyable_v<D>) {
          // Trivially copyable captures relocate as a raw byte copy of the
          // object itself — no move-construct/destroy round trip.
          __builtin_memcpy(dst, src, sizeof(D));
        } else {
          D* from = AsInline<D>(src);
          ::new (static_cast<void*>(dst)) D(std::move(*from));
          from->~D();
        }
      },
      [](unsigned char* storage) { AsInline<D>(storage)->~D(); },
  };

  template <typename D>
  static constexpr VTable kHeapVTable = {
      [](unsigned char* storage, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(storage)))(std::forward<Args>(args)...);
      },
      [](unsigned char* dst, unsigned char* src) {
        *reinterpret_cast<void**>(dst) = *reinterpret_cast<void**>(src);
      },
      [](unsigned char* storage) { delete *std::launder(reinterpret_cast<D**>(storage)); },
  };

  void Reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  void MoveFrom(MoveFn& other) {
    if (other.vtable_ != nullptr) {
      other.vtable_->relocate(storage_, other.storage_);
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  alignas(kStorageAlign) unsigned char storage_[kInlineBytes];
};

}  // namespace lastcpu::sim

#endif  // SRC_SIM_MOVE_FN_H_
