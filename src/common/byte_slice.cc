#include "src/common/byte_slice.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace rocksteady {

ByteBuffer::ByteBuffer(size_t capacity)
    : data_(static_cast<uint8_t*>(std::malloc(std::max<size_t>(capacity, 1)))),
      capacity_(capacity) {
  if (data_ == nullptr) {
    throw std::bad_alloc();
  }
}

ByteBuffer::~ByteBuffer() { std::free(data_); }

IntrusivePtr<ByteBuffer> ByteBuffer::Allocate(size_t capacity) {
  return IntrusivePtr<ByteBuffer>(new ByteBuffer(capacity));
}

void ByteBuffer::Reallocate(size_t capacity) {
  // Shrinking realloc splits the block in place; growing may move it.
  auto* data = static_cast<uint8_t*>(std::realloc(data_, std::max<size_t>(capacity, 1)));
  if (data == nullptr) {
    throw std::bad_alloc();
  }
  data_ = data;
  capacity_ = capacity;
}

void ByteSliceBuilder::Append(const uint8_t* data, size_t length) {
  const size_t needed = size_ + length;
  if (buffer_ == nullptr) {
    buffer_ = ByteBuffer::Allocate(std::max(needed, reserve_));
  } else if (needed > buffer_->capacity()) {
    buffer_->Reallocate(std::max(needed, 2 * buffer_->capacity()));
  }
  std::memcpy(buffer_->data() + size_, data, length);
  size_ = needed;
}

ByteSlice ByteSliceBuilder::Finish() {
  if (size_ == 0) {
    buffer_.reset();
    return ByteSlice();
  }
  if (buffer_->capacity() > size_) {
    buffer_->Reallocate(size_);
  }
  const size_t size = size_;
  size_ = 0;
  return ByteSlice(std::move(buffer_), 0, size);
}

}  // namespace rocksteady
