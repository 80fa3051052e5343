#include "src/runner/shard_io.hpp"

#include <cstdio>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::runner {

namespace {

constexpr std::uint32_t kResultMagic = 0x53525357;      // "WSRS" little-endian
constexpr std::uint32_t kResultVersion = 1;
constexpr std::uint32_t kCheckpointMagic = 0x43525357;  // "WSRC" little-endian
constexpr std::uint32_t kCheckpointVersion = 1;

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

}  // namespace

ShardRange shard_range(std::size_t total, std::size_t shard,
                       std::size_t workers) {
  WCDMA_ASSERT(workers >= 1 && shard < workers);
  // Balanced split without overflow-prone multiplication ordering issues:
  // floor(shard * total / workers) boundaries.
  ShardRange range;
  range.begin = shard * total / workers;
  range.end = (shard + 1) * total / workers;
  return range;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  out->clear();
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // fclose flushes; a full disk surfaces here and must not leave the final
  // name pointing at a short file.
  if (std::fclose(f) != 0 || written != bytes.size()) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::vector<std::uint8_t> encode_shard_result(
    const ShardHeader& header, const std::vector<sim::SimMetrics>& items) {
  WCDMA_ASSERT(items.size() == header.item_end - header.item_begin);
  return common::seal(kResultMagic, kResultVersion,
                      [&](common::BinaryWriter& w) {
                        w(header);
                        for (const sim::SimMetrics& m : items) w(m);
                      });
}

bool decode_shard_result(const std::vector<std::uint8_t>& bytes,
                         const ShardHeader& expect,
                         std::vector<sim::SimMetrics>* items,
                         std::string* error) {
  items->clear();
  common::BinaryReader r;
  if (const char* why = common::unseal(bytes, kResultMagic, kResultVersion, &r)) {
    return fail(error, std::string("result file ") + why);
  }
  ShardHeader h;
  r(h);
  if (!r.ok() || !(h == expect)) {
    return fail(error, "result file belongs to a different shard/run");
  }
  const std::size_t count = expect.item_end - expect.item_begin;
  items->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    r((*items)[i]);
    if (!r.ok()) {
      items->clear();
      return fail(error,
                  "result file item " + std::to_string(expect.item_begin + i) +
                      " failed to decode");
    }
  }
  if (!r.at_end()) {
    items->clear();
    return fail(error, "result file has trailing or missing payload");
  }
  return true;
}

std::vector<std::uint8_t> encode_shard_checkpoint(const ShardCheckpoint& ck) {
  WCDMA_ASSERT(ck.next_item >= ck.header.item_begin &&
               ck.next_item <= ck.header.item_end);
  WCDMA_ASSERT(ck.completed.size() == ck.next_item - ck.header.item_begin);
  return common::seal(kCheckpointMagic, kCheckpointVersion,
                      [&](common::BinaryWriter& w) {
                        w(ck.header, ck.next_item);
                        for (const sim::SimMetrics& m : ck.completed) w(m);
                        w.blob(ck.snapshot);
                      });
}

bool decode_shard_checkpoint(const std::vector<std::uint8_t>& bytes,
                             const ShardHeader& expect, ShardCheckpoint* out,
                             std::string* error) {
  *out = ShardCheckpoint{};
  common::BinaryReader r;
  if (const char* why =
          common::unseal(bytes, kCheckpointMagic, kCheckpointVersion, &r)) {
    return fail(error, std::string("checkpoint ") + why);
  }
  r(out->header);
  if (!r.ok() || !(out->header == expect)) {
    return fail(error, "checkpoint belongs to a different shard/run");
  }
  const ShardHeader& h = out->header;
  r(out->next_item);
  if (!r.ok() || out->next_item < h.item_begin || out->next_item > h.item_end) {
    return fail(error, "checkpoint progress cursor is out of range");
  }
  out->completed.resize(static_cast<std::size_t>(out->next_item - h.item_begin));
  for (std::size_t i = 0; i < out->completed.size(); ++i) {
    r(out->completed[i]);
    if (!r.ok()) {
      return fail(error, "checkpoint item " + std::to_string(h.item_begin + i) +
                             " failed to decode");
    }
  }
  r.blob(out->snapshot);
  if (!r.ok() || !r.at_end()) {
    return fail(error, "checkpoint has trailing or missing payload");
  }
  return true;
}

}  // namespace wcdma::runner
