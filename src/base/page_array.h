// A fixed-length array of trivially copyable elements in an anonymous memory
// mapping of its own, zero-filled at creation.
//
// For large tables that are rebuilt and discarded, such as the compiled
// policy's DAC matrix (megabytes, built on the monitor's recompile thread).
// In the malloc heap, a freed chunk of that size stays resident in the arena
// of the thread that freed it whenever it is below the arena's trim
// threshold, so whether a discarded build's memory went back to the system
// depended on which thread built it and how builds interleaved, and the
// process's resident size differed from run to run by a whole table. A
// mapping of its own is returned to the system when the array is destroyed,
// so resident memory follows the live tables only. Fresh pages read as zero
// and cost nothing until written.

#ifndef XSEC_SRC_BASE_PAGE_ARRAY_H_
#define XSEC_SRC_BASE_PAGE_ARRAY_H_

#include <cstddef>
#include <type_traits>
#include <utility>

namespace xsec {

namespace page_array_internal {
// Zero-filled anonymous mapping of at least `bytes`; null for 0 bytes.
// Throws std::bad_alloc if the mapping fails.
void* MapZeroed(size_t bytes);
// Releases a mapping made by MapZeroed(bytes); no-op for null.
void Unmap(void* data, size_t bytes);
}  // namespace page_array_internal

template <typename T>
class PageArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "PageArray elements are zero-filled bytes, never constructed or destroyed");

 public:
  PageArray() = default;
  explicit PageArray(size_t size)
      : data_(static_cast<T*>(page_array_internal::MapZeroed(size * sizeof(T)))), size_(size) {}
  ~PageArray() { page_array_internal::Unmap(data_, size_ * sizeof(T)); }

  PageArray(PageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  PageArray& operator=(PageArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace xsec

#endif  // XSEC_SRC_BASE_PAGE_ARRAY_H_
