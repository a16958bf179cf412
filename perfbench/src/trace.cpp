#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer&
Tracer::global()
{
    static Tracer t;
    return t;
}

Tracer::ThreadBuf&
Tracer::local()
{
    thread_local ThreadBuf* buf = nullptr;
    if (!buf) {
        std::lock_guard<std::mutex> lock(mu_);
        bufs_.push_back(std::make_unique<ThreadBuf>());
        buf = bufs_.back().get();
        buf->thread = uint32_t(bufs_.size() - 1);
        buf->spans.reserve(1 << 16);
    }
    return *buf;
}

namespace {

int64_t
globalId(const Tracer::ThreadBuf& b, int64_t idx)
{
    return idx < 0 ? -1 : (int64_t(b.thread) << 32) | idx;
}

} // namespace

void
Tracer::writeJson(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os << "[";
    bool first = true;
    char line[256];
    for (const auto& b : bufs_) {
        for (size_t i = 0; i < b->spans.size(); ++i) {
            const SpanRecord& s = b->spans[i];
            std::snprintf(line, sizeof(line),
                          "%s\n[%lld,\"%s\",%.9f,%.9f,%lld,%llu,%u]",
                          first ? "" : ",",
                          (long long)globalId(*b, int64_t(i)), s.name,
                          s.start, s.end,
                          (long long)globalId(*b, s.parent),
                          (unsigned long long)s.op, b->thread);
            os << line;
            first = false;
        }
    }
    os << "\n]\n";
}

Span::Span(const char* name, uint64_t op)
{
    Tracer& t = Tracer::global();
    if (t.enabled()) {
        buf_ = &t.local();
        SpanRecord r;
        r.name = name;
        r.parent = buf_->open.empty() ? -1 : buf_->open.back();
        r.op = op != 0 || r.parent < 0 ? op : buf_->spans[r.parent].op;
        idx_ = int64_t(buf_->spans.size());
        buf_->spans.push_back(r);
        buf_->open.push_back(idx_);
    }
    start_ = nowSeconds();
}

double
Span::stop()
{
    if (dur_ >= 0)
        return dur_;
    const double end = nowSeconds();
    dur_ = end - start_;
    if (buf_) {
        SpanRecord& r = buf_->spans[idx_];
        r.start = start_;
        r.end = end;
        buf_->open.pop_back();
    }
    return dur_;
}

} // namespace perfbench
