#pragma once

/**
 * @file
 * `.htb` — the HotTiles binary matrix format and its memory-mapped,
 * zero-copy loader (docs/OUTOFCORE.md has the full spec).
 *
 * Layout (little-endian, version 1):
 *
 *     offset 0   HtbHeader (64 bytes)
 *     offset 64  row_ids   uint32 × nnz   (globally row-major sorted)
 *                col_ids   uint32 × nnz
 *                vals      float32 × nnz
 *     index_offset
 *                panel_index uint64 × (num_panels + 1)
 *
 * The entries are sorted row-major over the whole matrix and deduped,
 * so any row-panel decomposition is a contiguous slice of the arrays.
 * `panel_index[p]` is the first entry of panel `p` for the writer's
 * `panel_rows`; consumers with a different tile height re-derive
 * boundaries with a binary search (the index is a fast path, not a
 * constraint).  Total file size must be exactly
 * `64 + 12·nnz + 8·(num_panels+1)` — anything else is rejected.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/types.hpp"

namespace hottiles {

/** EINTR-safe full read; returns bytes read (< n only at EOF). */
size_t readFully(int fd, void* buf, size_t n);
/** EINTR-safe full write; throws FatalError on any write failure. */
void writeFully(int fd, const void* buf, size_t n);

#pragma pack(push, 1)
struct HtbHeader
{
    char magic[8];      // "HOTTILEB"
    uint32_t version;   // 1
    uint32_t flags;     // 0 (reserved)
    uint64_t rows;
    uint64_t cols;
    uint64_t nnz;
    uint64_t panel_rows;
    uint64_t num_panels;
    uint64_t index_offset;
};
#pragma pack(pop)
static_assert(sizeof(HtbHeader) == 64, "header must be exactly 64 bytes");

inline constexpr char kHtbMagic[8] = {'H', 'O', 'T', 'T', 'I', 'L', 'E', 'B'};
inline constexpr uint32_t kHtbVersion = 1;

/**
 * Streaming `.htb` writer: panels are appended in order (exactly
 * `numPanels()` calls), each sorted row-major, deduped, and confined to
 * its row range; nnz is only known at the end, so panel payloads go to
 * three temp files (rows/cols/vals) that `finish()` concatenates into
 * the final file behind a complete header.  Peak memory is O(1).
 */
class HtbWriter
{
  public:
    HtbWriter(const std::string& path, Index rows, Index cols,
              Index panel_rows);
    ~HtbWriter();

    HtbWriter(const HtbWriter&) = delete;
    HtbWriter& operator=(const HtbWriter&) = delete;

    Index numPanels() const { return num_panels_; }
    Index panelRows() const { return panel_rows_; }

    /** Append the next panel's entries (may be empty). */
    void appendPanel(std::span<const Index> row_ids,
                     std::span<const Index> col_ids,
                     std::span<const Value> vals);

    /** Assemble the final file; returns total nnz written. */
    uint64_t finish();

  private:
    std::string path_;
    Index rows_, cols_, panel_rows_, num_panels_;
    Index next_panel_ = 0;
    std::vector<uint64_t> panel_index_; // running entry offsets
    int tmp_fd_[3] = {-1, -1, -1};      // rows / cols / vals temp files
    std::string tmp_path_[3];
    bool finished_ = false;
};

/** Write a sorted+deduped in-memory COO as `.htb` in one go. */
void writeHtbFromCoo(const std::string& path, const CooMatrix& a,
                     Index panel_rows);

/**
 * Zero-copy view of an `.htb` file.  The constructor validates the
 * header, the byte-exact file size and the panel index (monotone,
 * spanning [0, nnz]) and throws FatalError on any violation; entry
 * *content* (ordering/bounds) is validated by `validateData()` or
 * inline by the scan (scanPanelWindow).  The mapping is read-only and
 * advised MADV_SEQUENTIAL; `releaseEntries` drops consumed pages so
 * the resident high-water mark stays bounded while streaming.
 */
class MappedMatrix
{
  public:
    explicit MappedMatrix(const std::string& path);
    ~MappedMatrix();

    MappedMatrix(const MappedMatrix&) = delete;
    MappedMatrix& operator=(const MappedMatrix&) = delete;
    MappedMatrix(MappedMatrix&& o) noexcept;
    MappedMatrix& operator=(MappedMatrix&&) = delete;

    const std::string& path() const { return path_; }
    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    size_t nnz() const { return nnz_; }
    Index panelRows() const { return panel_rows_; }
    Index numPanels() const { return num_panels_; }

    std::span<const Index> rowIds() const { return {row_ids_, nnz_}; }
    std::span<const Index> colIds() const { return {col_ids_, nnz_}; }
    std::span<const Value> vals() const { return {vals_, nnz_}; }

    /** Writer's panel index (num_panels + 1 entry offsets, copied out
     *  of the mapping at open — the on-disk u64s may be unaligned). */
    const std::vector<uint64_t>& panelIndex() const { return panel_index_; }

    /**
     * First entry of row-panel `p` for a consumer tile height of
     * `panel_rows` rows (p may be the one-past-the-end panel).  Uses
     * the on-disk index when the heights divide evenly, binary search
     * otherwise.
     */
    size_t panelBeginEntry(Index panel_rows, Index p) const;

    /** Full O(nnz) content check: row-major sorted, strictly deduped,
     *  indices in range, panel index consistent.  FatalError if not. */
    void validateData() const;

    /** madvise hints; best-effort (ignored if the kernel refuses). */
    void adviseSequential() const;
    /** Drop pages wholly inside entries [first, last) of all three
     *  entry arrays (rounded inward to page boundaries). */
    void releaseEntries(size_t first, size_t last) const;

  private:
    std::string path_;
    int fd_ = -1;
    void* map_ = nullptr;
    size_t map_len_ = 0;
    Index rows_ = 0, cols_ = 0;
    size_t nnz_ = 0;
    Index panel_rows_ = 0, num_panels_ = 0;
    const Index* row_ids_ = nullptr;
    const Index* col_ids_ = nullptr;
    const Value* vals_ = nullptr;
    std::vector<uint64_t> panel_index_;
};

/** Load a validated `.htb` fully into memory (the O(nnz) baseline). */
CooMatrix loadHtbToCoo(const std::string& path);

} // namespace hottiles
