#include "src/base/page_array.h"

#include <sys/mman.h>

#include <new>

namespace xsec {
namespace page_array_internal {

void* MapZeroed(size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  void* data = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return data;
}

void Unmap(void* data, size_t bytes) {
  if (data != nullptr) {
    munmap(data, bytes);
  }
}

}  // namespace page_array_internal
}  // namespace xsec
