#include "eval/cache_io.h"

#include <bit>
#include <cstring>

namespace haven::eval {
namespace {

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i32(std::string& out, std::int32_t v) { put_u32(out, static_cast<std::uint32_t>(v)); }

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// Bounds-checked little-endian reader over the payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t* v) {
    if (pos_ + 1 > data_.size()) return fail();
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (pos_ + 4 > data_.size()) return fail();
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)])) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool i32(std::int32_t* v) {
    std::uint32_t raw = 0;
    if (!u32(&raw)) return false;
    *v = static_cast<std::int32_t>(raw);
    return true;
  }
  bool str(std::string* s) {
    std::uint32_t len = 0;
    if (!u32(&len)) return false;
    if (pos_ + len > data_.size()) return fail();
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool exhausted() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string encode_verdict(const CachedVerdict& v, bool extended) {
  std::string out;
  put_u32(out, extended ? kVerdictSchemaVersionExtended : kVerdictSchemaVersion);
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (v.syntax_ok ? 1 : 0) | (v.func_ok ? 2 : 0) | (v.triaged ? 4 : 0) | (v.simulated ? 8 : 0) |
      (v.proved ? 0x10 : 0) | (v.prove_fallback ? 0x20 : 0));
  put_u8(out, flags);
  put_i32(out, v.sim_vectors);
  put_u32(out, static_cast<std::uint32_t>(v.findings.size()));
  for (const lint::Finding& f : v.findings) {
    put_u8(out, static_cast<std::uint8_t>(f.rule));
    put_u8(out, static_cast<std::uint8_t>(f.diag.severity));
    put_u8(out, static_cast<std::uint8_t>(f.axis));
    put_u8(out, static_cast<std::uint8_t>((f.predicts_failure ? 1 : 0) | (f.proven ? 2 : 0)));
    put_i32(out, f.diag.line);
    put_i32(out, f.diag.column);
    put_str(out, f.diag.message);
    put_str(out, f.diag.rule);
  }
  if (extended) put_str(out, v.fail_reason);
  return out;
}

bool decode_verdict(std::string_view payload, CachedVerdict* out) {
  Reader r(payload);
  std::uint32_t version = 0;
  if (!r.u32(&version) ||
      (version != kVerdictSchemaVersion && version != kVerdictSchemaVersionExtended)) {
    return false;
  }
  std::uint8_t flags = 0;
  if (!r.u8(&flags) || (flags & ~0x3fu) != 0) return false;
  CachedVerdict v;
  v.syntax_ok = (flags & 1) != 0;
  v.func_ok = (flags & 2) != 0;
  v.triaged = (flags & 4) != 0;
  v.simulated = (flags & 8) != 0;
  v.proved = (flags & 0x10) != 0;
  v.prove_fallback = (flags & 0x20) != 0;
  if (!r.i32(&v.sim_vectors)) return false;
  std::uint32_t count = 0;
  if (!r.u32(&count)) return false;
  // Sanity cap: a candidate never produces anywhere near this many findings;
  // a huge count signals corruption, not data.
  if (count > 100000) return false;
  v.findings.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t rule = 0, severity = 0, axis = 0, fflags = 0;
    if (!r.u8(&rule) || !r.u8(&severity) || !r.u8(&axis) || !r.u8(&fflags)) return false;
    if (rule >= lint::kNumRules || severity > static_cast<std::uint8_t>(verilog::Severity::kError) ||
        axis >= llm::kNumHalluAxes || (fflags & ~0x03u) != 0) {
      return false;
    }
    lint::Finding f;
    f.rule = static_cast<lint::Rule>(rule);
    f.diag.severity = static_cast<verilog::Severity>(severity);
    f.axis = static_cast<llm::HalluAxis>(axis);
    f.predicts_failure = (fflags & 1) != 0;
    f.proven = (fflags & 2) != 0;
    if (!r.i32(&f.diag.line) || !r.i32(&f.diag.column)) return false;
    if (!r.str(&f.diag.message) || !r.str(&f.diag.rule)) return false;
    v.findings.push_back(std::move(f));
  }
  if (version == kVerdictSchemaVersionExtended && !r.str(&v.fail_reason)) return false;
  if (!r.exhausted()) return false;  // trailing bytes = corruption
  *out = std::move(v);
  return true;
}

cache::Digest task_cache_seed(const EvalTask& task, std::uint64_t sim_step_budget,
                              CacheLintMode lint_mode, bool prove, std::uint64_t prove_budget,
                              const repair::RepairPolicy* repair) {
  cache::Hasher h;
  h.u32(kVerdictSchemaVersion);
  h.u32(kEvalSemanticsVersion);
  h.bytes(task.id);
  h.bytes(cache::canonical_verilog(task.golden_source));
  const sim::StimulusSpec& s = task.stimulus;
  h.boolean(s.sequential)
      .bytes(s.clock)
      .bytes(s.reset)
      .boolean(s.reset_active_low)
      .i32(s.cycles)
      .i32(s.max_exhaustive_bits)
      .i32(s.random_vectors)
      .boolean(s.mid_test_reset)
      .u64(s.step_budget);
  // StimulusSpec::backend is deliberately NOT hashed: the interpreter and the
  // compiled simulator are verdict-identical (DESIGN.md §10), so a warm cache
  // must keep replaying when the backend knob flips.
  h.u64(sim_step_budget);
  h.u64(static_cast<std::uint64_t>(lint_mode));
  // The prove knobs are hashed at request level, not per-task eligibility:
  // a proven entry replays different counter flags than a simulated one, so
  // prove on/off (and different budgets) must key distinct entries even
  // though their verdicts are identical.
  h.boolean(prove);
  h.u64(prove_budget);
  // The repair knobs are bound ONLY when the loop is enabled: a hinted round
  // replays different counter flags and an extended (v3) payload, so repair
  // configs must key distinct entries — while the disabled default hashes
  // nothing, so a repair-off digest does not depend on the policy object.
  if (repair != nullptr && repair->enabled()) {
    h.bytes("repair");
    h.i32(repair->max_rounds);
    h.i32(repair->attempt_budget);
    h.boolean(repair->stop_on_pass);
    h.u64(std::bit_cast<std::uint64_t>(repair->efficacy));
  }
  return h.digest();
}

cache::Digest unit_cache_key(const cache::Digest& task_seed, std::string_view candidate_source,
                             std::uint64_t tb_stream_hash) {
  cache::Hasher h;
  h.u64(task_seed.hi).u64(task_seed.lo);
  h.bytes(cache::canonical_verilog(candidate_source));
  h.u64(tb_stream_hash);
  return h.digest();
}

}  // namespace haven::eval
