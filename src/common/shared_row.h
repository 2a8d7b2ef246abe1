// Immutable, reference-counted array of trivially copyable values.
//
// A SharedRow is one heap block: a small header (reference count, length)
// followed by the values. Copying a row shares the block; a row is never
// mutated in place, only replaced by assignment, so sharing is invisible to
// callers. The empty row owns no block. The read-only surface is the subset
// of std::vector that value-style consumers use: size, empty, data, [],
// iteration, and == against another row or a std::vector.
//
// The reference count is atomic, so rows may be copied and released on any
// thread; the values themselves are never written after construction.

#ifndef SRC_COMMON_SHARED_ROW_H_
#define SRC_COMMON_SHARED_ROW_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace philly {

template <typename T>
class SharedRow {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SharedRow holds plain values");

 public:
  using value_type = T;
  using size_type = size_t;
  using const_iterator = const T*;
  using iterator = const T*;

  SharedRow() = default;
  explicit SharedRow(std::span<const T> values) : rep_(Allocate(values)) {}
  SharedRow(const std::vector<T>& values)  // NOLINT(google-explicit-constructor)
      : SharedRow(std::span<const T>(values)) {}
  SharedRow(std::initializer_list<T> values)
      : SharedRow(std::span<const T>(values.begin(), values.size())) {}

  SharedRow(const SharedRow& other) noexcept : rep_(other.rep_) { Retain(); }
  SharedRow(SharedRow&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  SharedRow& operator=(SharedRow other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~SharedRow() { Release(); }

  size_t size() const { return rep_ != nullptr ? rep_->size : 0; }
  bool empty() const { return rep_ == nullptr; }
  const T* data() const { return rep_ != nullptr ? Values(rep_) : nullptr; }
  const T& operator[](size_t i) const {
    assert(i < size());
    return data()[i];
  }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  friend bool operator==(const SharedRow& a, const SharedRow& b) {
    return a.rep_ == b.rep_ || std::ranges::equal(a, b);
  }
  friend bool operator==(const SharedRow& a, const std::vector<T>& b) {
    return std::ranges::equal(a, b);
  }

 private:
  struct alignas(8) Rep {
    std::atomic<uint32_t> refs;
    uint32_t size;
  };
  static_assert(alignof(T) <= alignof(Rep) && sizeof(Rep) % alignof(Rep) == 0);

  static T* Values(Rep* rep) {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(rep) + sizeof(Rep));
  }

  static Rep* Allocate(std::span<const T> values) {
    if (values.empty()) {
      return nullptr;
    }
    if (values.size() > UINT32_MAX) {
      throw std::length_error("SharedRow: more than 2^32-1 values");
    }
    void* block = ::operator new(sizeof(Rep) + values.size_bytes());
    Rep* rep = ::new (block) Rep{{1}, static_cast<uint32_t>(values.size())};
    std::memcpy(Values(rep), values.data(), values.size_bytes());
    return rep;
  }

  void Retain() const {
    if (rep_ != nullptr) {
      ++rep_->refs;
    }
  }

  void Release() {
    if (rep_ != nullptr && --rep_->refs == 0) {
      rep_->~Rep();
      ::operator delete(rep_);
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace philly

#endif  // SRC_COMMON_SHARED_ROW_H_
