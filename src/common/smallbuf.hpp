/**
 * @file
 * A fixed-length scratch array that lives on the stack when it is
 * small. The analyses' hot loops need short per-call arrays (one entry
 * per workload dim, per rectangle cut, ...) whose length is only known
 * at run time but is almost always tiny; this keeps them off the heap
 * without capping their length.
 */

#ifndef TILEFLOW_COMMON_SMALLBUF_HPP
#define TILEFLOW_COMMON_SMALLBUF_HPP

#include <cstddef>
#include <vector>

namespace tileflow {

/** `size` elements, all set to `fill`: inline when size <= N, else on
 *  the heap. Not copyable (data() may point into the object). */
template <typename T, size_t N>
class SmallBuffer
{
  public:
    SmallBuffer(size_t size, const T& fill)
    {
        if (size > N) {
            heap_.assign(size, fill);
            data_ = heap_.data();
        } else {
            for (size_t i = 0; i < size; ++i)
                inline_[i] = fill;
        }
    }

    SmallBuffer(const SmallBuffer&) = delete;
    SmallBuffer& operator=(const SmallBuffer&) = delete;

    T* data() { return data_; }
    T& operator[](size_t i) { return data_[i]; }

  private:
    T inline_[N];
    std::vector<T> heap_;
    T* data_ = inline_;
};

} // namespace tileflow

#endif // TILEFLOW_COMMON_SMALLBUF_HPP
