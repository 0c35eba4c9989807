// A fixed-capacity vector stored inline: no heap allocation, trivially
// copyable when T is. Appending past capacity drops the element and keeps
// the first N — the "first N packets" rule of a capture record.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>

namespace tamper::common {

template <typename T, std::size_t N>
class InlineVec {
 public:
  InlineVec() = default;
  InlineVec(std::initializer_list<T> items) { assign(items.begin(), items.end()); }

  /// Appends `item` unless full; returns whether it was kept.
  bool push_back(const T& item) noexcept {
    if (size_ == N) return false;
    items_[size_++] = item;
    return true;
  }

  /// Replaces the contents with [first, last), keeping the first N.
  template <typename It>
  void assign(It first, It last) {
    size_ = 0;
    for (; first != last && size_ < N; ++first) items_[size_++] = *first;
  }

  void clear() noexcept { size_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return items_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return items_[i]; }
  [[nodiscard]] T& front() noexcept { return items_[0]; }
  [[nodiscard]] const T& front() const noexcept { return items_[0]; }
  [[nodiscard]] T& back() noexcept { return items_[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return items_[size_ - 1]; }

  [[nodiscard]] T* begin() noexcept { return items_.data(); }
  [[nodiscard]] T* end() noexcept { return items_.data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return items_.data(); }
  [[nodiscard]] const T* end() const noexcept { return items_.data() + size_; }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

}  // namespace tamper::common
