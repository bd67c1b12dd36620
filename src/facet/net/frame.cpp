#include "facet/net/frame.hpp"

#include <exception>
#include <iostream>
#include <sstream>

#include "facet/obs/clock.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FACET_HAS_SOCKETS 1
#include <cerrno>
#include <sys/socket.h>
#else
#define FACET_HAS_SOCKETS 0
#endif

namespace facet {

const char* frame_status_name(FrameStatus status) noexcept
{
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kBadFrame: return "bad_frame";
    case FrameStatus::kTooLarge: return "too_large";
    case FrameStatus::kBadVerb: return "bad_verb";
    case FrameStatus::kBadWidth: return "bad_width";
    case FrameStatus::kBadCount: return "bad_count";
    case FrameStatus::kReadonly: return "readonly";
    case FrameStatus::kUnrouted: return "unrouted";
    case FrameStatus::kInternal: return "internal";
    case FrameStatus::kAtCapacity: return "at_capacity";
  }
  return "unknown";
}

FrameSrc frame_src(LookupSource source) noexcept
{
  switch (source) {
    case LookupSource::kTable: return FrameSrc::kTable;
    case LookupSource::kHotCache: return FrameSrc::kCache;
    case LookupSource::kMemo: return FrameSrc::kMemo;
    case LookupSource::kIndex: return FrameSrc::kIndex;
    case LookupSource::kLive: return FrameSrc::kLive;
  }
  return FrameSrc::kMiss;
}

const char* frame_src_name(std::uint8_t src) noexcept
{
  switch (static_cast<FrameSrc>(src)) {
    case FrameSrc::kTable: return "table";
    case FrameSrc::kCache: return "cache";
    case FrameSrc::kMemo: return "memo";
    case FrameSrc::kIndex: return "index";
    case FrameSrc::kLive: return "live";
    case FrameSrc::kMiss: return "miss";
  }
  return "unknown";
}

void append_u32(std::string& out, std::uint32_t value)
{
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void append_u64(std::string& out, std::uint64_t value)
{
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

std::uint32_t read_u32(const unsigned char* p) noexcept
{
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const unsigned char* p) noexcept
{
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | p[i];
  }
  return value;
}

void encode_header(std::string& out, const FrameHeader& header)
{
  out.push_back(static_cast<char>(header.magic));
  out.push_back(static_cast<char>(header.verb));
  out.push_back(static_cast<char>(header.aux));
  out.push_back(static_cast<char>(header.flags));
  append_u32(out, header.payload_bytes);
}

FrameHeader decode_header(const unsigned char* p) noexcept
{
  FrameHeader header;
  header.magic = p[0];
  header.verb = p[1];
  header.aux = p[2];
  header.flags = p[3];
  header.payload_bytes = read_u32(p + 4);
  return header;
}

void encode_operand(std::string& out, const TruthTable& tt)
{
  const std::size_t bytes = frame_operand_bytes(tt.num_vars());
  std::size_t emitted = 0;
  for (std::size_t w = 0; w < tt.num_words() && emitted < bytes; ++w) {
    const std::uint64_t word = tt.word(w);
    for (int shift = 0; shift < 64 && emitted < bytes; shift += 8, ++emitted) {
      out.push_back(static_cast<char>((word >> shift) & 0xFF));
    }
  }
}

TruthTable decode_operand(int width, const unsigned char* p)
{
  const std::size_t bytes = frame_operand_bytes(width);
  std::vector<std::uint64_t> words(words_for_vars(width), 0);
  for (std::size_t i = 0; i < bytes; ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(p[i]) << ((i % 8) * 8);
  }
  // The TruthTable constructor clears excess high bits, so a width-2
  // operand byte with junk in bits 4..7 still decodes to a valid table.
  return TruthTable{width, std::move(words)};
}

std::string encode_batch_request(FrameVerb verb, int width,
                                 const std::vector<TruthTable>& funcs)
{
  const std::size_t operand_bytes = frame_operand_bytes(width);
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = static_cast<std::uint8_t>(verb);
  header.aux = static_cast<std::uint8_t>(width);
  header.payload_bytes = static_cast<std::uint32_t>(4 + funcs.size() * operand_bytes);
  std::string out;
  out.reserve(kFrameHeaderBytes + header.payload_bytes);
  encode_header(out, header);
  append_u32(out, static_cast<std::uint32_t>(funcs.size()));
  for (const TruthTable& tt : funcs) {
    encode_operand(out, tt);
  }
  return out;
}

std::string encode_control_request(FrameVerb verb)
{
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = static_cast<std::uint8_t>(verb);
  std::string out;
  encode_header(out, header);
  return out;
}

void encode_response(std::string& out, std::uint8_t verb, FrameStatus status,
                     std::string_view payload)
{
  FrameHeader header;
  header.magic = kFrameResponseMagic;
  header.verb = verb;
  header.aux = static_cast<std::uint8_t>(status);
  header.payload_bytes = static_cast<std::uint32_t>(payload.size());
  encode_header(out, header);
  out.append(payload);
}

std::optional<std::vector<FrameRecord>> decode_records(const std::string& payload)
{
  if (payload.size() < 4) {
    return std::nullopt;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  const std::uint32_t count = read_u32(p);
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 8) {
    return std::nullopt;
  }
  std::vector<FrameRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const unsigned char* rec = p + 4 + i * 8;
    FrameRecord record;
    record.class_id = read_u32(rec);
    record.known = rec[4];
    record.src = rec[5];
    records.push_back(record);
  }
  return records;
}

#if FACET_HAS_SOCKETS

namespace {

/// Reads exactly `size` bytes; false on EOF or a socket error.
bool recv_exact(int fd, char* data, std::size_t size)
{
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<FrameResponse> frame_round_trip(const Socket& socket, std::string_view request)
{
  if (!send_all(socket.fd(), request)) {
    return std::nullopt;
  }
  char head[kFrameHeaderBytes];
  if (!recv_exact(socket.fd(), head, sizeof head)) {
    return std::nullopt;
  }
  FrameResponse response;
  response.header = decode_header(reinterpret_cast<const unsigned char*>(head));
  if (response.header.magic != kFrameResponseMagic ||
      response.header.payload_bytes > kMaxFramePayloadBytes) {
    return std::nullopt;
  }
  response.payload.resize(response.header.payload_bytes);
  if (!recv_exact(socket.fd(), response.payload.data(), response.payload.size())) {
    return std::nullopt;
  }
  return response;
}

#else  // !FACET_HAS_SOCKETS

std::optional<FrameResponse> frame_round_trip(const Socket&, std::string_view)
{
  throw NetError{"sockets are not supported on this platform"};
}

#endif

// ---------------------------------------------------------------------------
// FrameSession

namespace {

/// Verb names for the per-verb frame-latency series; index = verb id.
constexpr std::array<const char*, 6> kFrameVerbNames{"unknown", "lookup", "append",
                                                     "stats",   "metrics", "quit"};

}  // namespace

FrameSession::FrameSession(ServeDispatcher* dispatcher)
    : dispatcher_{dispatcher}, slow_request_us_{dispatcher->options().slow_request_us}
{
  for (std::size_t v = 0; v < kFrameVerbNames.size(); ++v) {
    frame_latency_[v] = &serve_frame_latency(kFrameVerbNames[v]);
  }
}

FrameStep FrameSession::consume(std::string& in, std::string& out)
{
  std::size_t offset = 0;
  FrameStep step = FrameStep::kContinue;
  while (step == FrameStep::kContinue) {
    if (in.size() - offset < kFrameHeaderBytes) {
      break;
    }
    const auto* base = reinterpret_cast<const unsigned char*>(in.data()) + offset;
    const FrameHeader header = decode_header(base);
    if (header.magic != kFrameRequestMagic || header.flags != 0) {
      respond_err(out, header, FrameStatus::kBadFrame,
                  "bad frame header (wrong magic or nonzero flags)");
      step = FrameStep::kClose;
      offset = in.size();
      break;
    }
    if (header.payload_bytes > kMaxFramePayloadBytes) {
      std::ostringstream reason;
      reason << "frame payload " << header.payload_bytes << " exceeds "
             << kMaxFramePayloadBytes << " bytes";
      respond_err(out, header, FrameStatus::kTooLarge, reason.str());
      step = FrameStep::kClose;
      offset = in.size();
      break;
    }
    if (in.size() - offset < kFrameHeaderBytes + header.payload_bytes) {
      break;  // wait for the rest of this frame
    }
    const std::uint64_t t0 = obs::now_ticks();
    dispatcher_->count_request();
    try {
      step = handle_frame(header, base + kFrameHeaderBytes, out);
    } catch (const std::exception& e) {
      respond_err(out, header, FrameStatus::kInternal, e.what());
      step = FrameStep::kClose;
    }
    const std::size_t verb_slot =
        header.verb < kFrameVerbNames.size() ? header.verb : 0;
    const std::uint64_t ns = obs::ticks_to_ns(obs::now_ticks() - t0);
    frame_latency_[verb_slot]->record_ns(ns);
    if (slow_request_us_ != 0 && ns / 1000 >= slow_request_us_) {
      log_slow(header, ns);
    }
    offset += kFrameHeaderBytes + header.payload_bytes;
  }
  // One erase per consume call, not per frame: a burst of pipelined frames
  // shifts the buffer tail once.
  if (offset > 0) {
    in.erase(0, offset);
  }
  return step;
}

FrameStep FrameSession::handle_frame(const FrameHeader& header,
                                     const unsigned char* payload, std::string& out)
{
  last_src_ = nullptr;
  switch (static_cast<FrameVerb>(header.verb)) {
    case FrameVerb::kLookup:
    case FrameVerb::kAppend:
      return handle_batch(header, payload, out);
    case FrameVerb::kStats:
      encode_response(out, header.verb, FrameStatus::kOk, dispatcher_->stats_all_text());
      return FrameStep::kContinue;
    case FrameVerb::kMetrics:
      encode_response(out, header.verb, FrameStatus::kOk, dispatcher_->metrics_text());
      return FrameStep::kContinue;
    case FrameVerb::kQuit: {
      // Flush before answering: a client that reads the ok frame knows its
      // appends are durable.
      const std::uint64_t flushed = dispatcher_->flush_on_exit();
      std::string body;
      append_u64(body, flushed);
      encode_response(out, header.verb, FrameStatus::kOk, body);
      return FrameStep::kClose;
    }
    default: {
      std::ostringstream reason;
      reason << "unknown verb id " << static_cast<unsigned>(header.verb)
             << " (lookup=1 append=2 stats=3 metrics=4 quit=5)";
      respond_err(out, header, FrameStatus::kBadVerb, reason.str());
      return FrameStep::kContinue;
    }
  }
}

FrameStep FrameSession::handle_batch(const FrameHeader& header,
                                     const unsigned char* payload, std::string& out)
{
  const int width = header.aux;
  if (width > kMaxVars) {
    std::ostringstream reason;
    reason << "width " << width << " exceeds " << kMaxVars;
    respond_err(out, header, FrameStatus::kBadWidth, reason.str());
    return FrameStep::kContinue;
  }
  const bool append = static_cast<FrameVerb>(header.verb) == FrameVerb::kAppend;
  if (append && dispatcher_->options().readonly) {
    respond_err(out, header, FrameStatus::kReadonly, "append on a readonly server");
    return FrameStep::kContinue;
  }
  ClassStore* store = dispatcher_->store_for_width(width);
  if (store == nullptr) {
    std::ostringstream reason;
    reason << "no store routes width " << width;
    respond_err(out, header, FrameStatus::kUnrouted, reason.str());
    return FrameStep::kContinue;
  }
  if (header.payload_bytes < 4) {
    respond_err(out, header, FrameStatus::kBadCount, "batch payload shorter than its count");
    return FrameStep::kContinue;
  }
  const std::uint32_t count = read_u32(payload);
  const std::size_t operand_bytes = frame_operand_bytes(width);
  if (header.payload_bytes != 4 + static_cast<std::uint64_t>(count) * operand_bytes) {
    std::ostringstream reason;
    reason << "count " << count << " at width " << width << " needs "
           << 4 + static_cast<std::uint64_t>(count) * operand_bytes
           << " payload bytes, frame carries " << header.payload_bytes;
    respond_err(out, header, FrameStatus::kBadCount, reason.str());
    return FrameStep::kContinue;
  }

  std::string body;
  body.reserve(4 + static_cast<std::size_t>(count) * 8);
  append_u32(body, count);
  // The frame's answers are tallied here and counted into the aggregate
  // once, also when a later operand throws: an appended record is never
  // left uncounted.
  SourceCounts answered{};
  try {
    for (std::uint32_t i = 0; i < count; ++i) {
      const TruthTable query = decode_operand(width, payload + 4 + i * operand_bytes);
      const std::optional<StoreLookupResult> result =
          dispatcher_->lookup_binary(*store, query, append);
      if (result.has_value()) {
        ++answered[static_cast<std::size_t>(result->source)];
        append_u32(body, static_cast<std::uint32_t>(result->class_id));
        body.push_back(static_cast<char>(result->known ? 1 : 0));
        body.push_back(static_cast<char>(frame_src(result->source)));
      } else {
        append_u32(body, kFrameMissClassId);
        body.push_back(0);
        body.push_back(static_cast<char>(FrameSrc::kMiss));
      }
      body.push_back(0);
      body.push_back(0);
    }
  } catch (...) {
    dispatcher_->count_answers(width, answered, append);
    throw;
  }
  dispatcher_->count_answers(width, answered, append);
  if (count > 0) {
    // src byte of the last 8-byte record (u32 id, u8 known, u8 src, u16)
    last_src_ = frame_src_name(static_cast<std::uint8_t>(body[body.size() - 3]));
  }
  encode_response(out, header.verb, FrameStatus::kOk, body);
  return FrameStep::kContinue;
}

void FrameSession::respond_err(std::string& out, const FrameHeader& header, FrameStatus status,
                               std::string_view reason)
{
  dispatcher_->count_error();
  encode_response(out, header.verb, status, reason);
}

void FrameSession::log_slow(const FrameHeader& header, std::uint64_t ns) const
{
  const ServeOptions& options = dispatcher_->options();
  std::ostream& log = options.slow_log != nullptr ? *options.slow_log : std::cerr;
  const auto verb = static_cast<FrameVerb>(header.verb);
  const bool batch = verb == FrameVerb::kLookup || verb == FrameVerb::kAppend;
  log << "facet-serve: slow verb="
      << kFrameVerbNames[header.verb < kFrameVerbNames.size() ? header.verb : 0] << " width=";
  if (batch) {
    log << static_cast<unsigned>(header.aux);
  } else {
    log << '-';
  }
  log << " src=" << (last_src_ != nullptr ? last_src_ : "-") << " us=" << ns / 1000 << "\n";
}

}  // namespace facet
