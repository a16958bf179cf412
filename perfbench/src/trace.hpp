#pragma once

/**
 * @file
 * In-memory span recorder of the traced run.
 *
 * A span is (name, start, end, parent, op id).  Spans are appended to a
 * per-thread buffer, so recording takes no lock; the buffers are written
 * out once, after the timed window.  With tracing off a Span still reads
 * the clock (ops are timed with the same code in both runs) but records
 * nothing, so the difference between a traced and an untraced run is the
 * cost of recording.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace perfbench {

/** Monotonic clock in seconds. */
double nowSeconds();

struct SpanRecord
{
    const char* name = nullptr;  //!< string literal; never freed
    double start = 0;
    double end = 0;
    int64_t parent = -1;  //!< global id of the enclosing span, -1 = root
    uint64_t op = 0;      //!< op the span belongs to, 0 = outside any op
};

class Tracer
{
  public:
    static Tracer& global();

    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** Every recorded span as one JSON array of
     *  [id, name, start_s, end_s, parent_id, op_id, thread]. */
    void writeJson(std::ostream& os) const;

    struct ThreadBuf
    {
        uint32_t thread = 0;
        std::vector<SpanRecord> spans;
        std::vector<int64_t> open;  //!< stack of open span indices
    };
    /** The calling thread's buffer (created on first use). */
    ThreadBuf& local();

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/**
 * RAII span around one call into a layer.  @p op tags the span with an
 * op id; 0 inherits the enclosing span's op.  stop() ends the span early
 * and returns its duration; the destructor stops it if still open.
 */
class Span
{
  public:
    explicit Span(const char* name, uint64_t op = 0);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double stop();

  private:
    double start_ = 0;
    double dur_ = -1;
    Tracer::ThreadBuf* buf_ = nullptr;  //!< null when tracing is off
    int64_t idx_ = -1;
};

} // namespace perfbench
