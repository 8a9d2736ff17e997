#include "obs/export.hpp"

#include <cstring>
#include <fstream>

#include "obs/observer.hpp"

namespace rqs::obs {

namespace {

constexpr char kMagic[8] = {'R', 'Q', 'S', 'T', 'R', 'C', '0', '1'};

void put_u64(std::ostream& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 8);
}

bool get_u64(std::istream& in, std::uint64_t& v) {
  char b[8];
  if (!in.read(b, 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(b[i])} << (8 * i);
  }
  return true;
}

void put_event(std::ostream& out, const TraceEvent& e) {
  put_u64(out, static_cast<std::uint64_t>(e.at));
  put_u64(out, e.arg0);
  put_u64(out, e.arg1);
  put_u64(out, (std::uint64_t{e.name} << 32) | (std::uint64_t{e.actor} << 16) |
                   (std::uint64_t{e.kind} << 8) | e.aux);
}

bool get_event(std::istream& in, TraceEvent& e) {
  std::uint64_t at = 0;
  std::uint64_t packed = 0;
  if (!get_u64(in, at) || !get_u64(in, e.arg0) || !get_u64(in, e.arg1) ||
      !get_u64(in, packed)) {
    return false;
  }
  e.at = static_cast<std::int64_t>(at);
  e.name = static_cast<std::uint32_t>(packed >> 32);
  e.actor = static_cast<std::uint16_t>((packed >> 16) & 0xffff);
  e.kind = static_cast<std::uint8_t>((packed >> 8) & 0xff);
  e.aux = static_cast<std::uint8_t>(packed & 0xff);
  return true;
}

void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += '?';
        } else {
          out += c;
        }
    }
  }
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  json_escape(out, s);
  out += '"';
  return out;
}

}  // namespace

TraceDump TraceDump::from(const Observer& ob) {
  TraceDump dump;
  const TraceRing* ring = ob.ring();
  if (ring == nullptr) return dump;
  dump.events.reserve(ring->size());
  for (std::size_t i = 0; i < ring->size(); ++i) {
    dump.events.push_back((*ring)[i]);
  }
  dump.recorded = ring->recorded();
  dump.dropped = ring->dropped();
  for (const TraceEvent& e : dump.events) {
    const auto kind = static_cast<TraceKind>(e.kind);
    if (kind != TraceKind::kSend && kind != TraceKind::kDeliver) continue;
    if (!dump.tag_of(e.name).empty()) continue;
    const std::string_view tag = ob.message_tag(e.name);
    if (!tag.empty()) dump.tags.emplace_back(e.name, std::string(tag));
  }
  return dump;
}

std::string_view TraceDump::tag_of(std::uint32_t type) const noexcept {
  for (const auto& [t, tag] : tags) {
    if (t == type) return tag;
  }
  return {};
}

bool save_trace(const std::string& path, const TraceDump& dump) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(kMagic, sizeof(kMagic));
  put_u64(out, dump.events.size());
  put_u64(out, dump.recorded);
  put_u64(out, dump.dropped);
  for (const TraceEvent& e : dump.events) put_event(out, e);
  put_u64(out, dump.tags.size());
  for (const auto& [type, tag] : dump.tags) {
    put_u64(out, type);
    put_u64(out, tag.size());
    out.write(tag.data(), static_cast<std::streamsize>(tag.size()));
  }
  return static_cast<bool>(out);
}

std::optional<TraceDump> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  char magic[8];
  if (!in.read(magic, 8) || std::memcmp(magic, kMagic, 8) != 0) {
    return std::nullopt;
  }
  TraceDump dump;
  std::uint64_t count = 0;
  if (!get_u64(in, count) || !get_u64(in, dump.recorded) ||
      !get_u64(in, dump.dropped)) {
    return std::nullopt;
  }
  // One event at a time: the count is a claim of the file, so it sizes
  // nothing before the events are there.
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent e{};
    if (!get_event(in, e)) return std::nullopt;
    dump.events.push_back(e);
  }
  std::uint64_t tag_count = 0;
  if (!get_u64(in, tag_count)) return std::nullopt;
  for (std::uint64_t i = 0; i < tag_count; ++i) {
    std::uint64_t type = 0;
    std::uint64_t len = 0;
    if (!get_u64(in, type) || !get_u64(in, len) || len > 4096) {
      return std::nullopt;
    }
    std::string tag(len, '\0');
    if (!in.read(tag.data(), static_cast<std::streamsize>(len))) {
      return std::nullopt;
    }
    dump.tags.emplace_back(static_cast<std::uint32_t>(type), std::move(tag));
  }
  return dump;
}

void write_chrome_trace(std::ostream& out, const TraceDump& dump) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : dump.events) {
    std::string name;
    std::string cat;
    std::string args;
    switch (static_cast<TraceKind>(e.kind)) {
      case TraceKind::kSend: {
        const std::string_view tag = dump.tag_of(e.name);
        name = tag.empty() ? "msg" : std::string(tag);
        cat = "send";
        args = "\"to\":" + std::to_string(e.arg0) +
               ",\"deliver_at_us\":" + std::to_string(e.arg1);
        break;
      }
      case TraceKind::kDeliver: {
        const std::string_view tag = dump.tag_of(e.name);
        name = tag.empty() ? "msg" : std::string(tag);
        cat = "deliver";
        args = "\"from\":" + std::to_string(e.arg0);
        break;
      }
      case TraceKind::kTimer:
        name = "timer";
        cat = "timer";
        args = "\"id\":" + std::to_string(e.arg0);
        break;
      case TraceKind::kPhase:
        name = phase_point_name(e.name);
        cat = "phase";
        args = "\"arg0\":" + std::to_string(e.arg0) +
               ",\"arg1\":" + std::to_string(e.arg1) +
               ",\"round\":" + std::to_string(e.aux);
        break;
      case TraceKind::kQuorumClass:
        name = std::string(phase_point_name(e.name)) + ".class" +
               std::to_string(e.aux);
        cat = "quorum_class";
        args = "\"class\":" + std::to_string(e.aux) +
               ",\"rounds\":" + std::to_string(e.arg0);
        break;
      case TraceKind::kCompaction:
        name = "compact";
        cat = "compaction";
        args = "\"key\":" + std::to_string(e.name) +
               ",\"rows_dropped\":" + std::to_string(e.arg0) +
               ",\"floor_seq\":" + std::to_string(e.arg1);
        break;
      default:
        continue;
    }
    if (!first) out << ",";
    first = false;
    out << "{\"name\":" << quoted(name) << ",\"cat\":" << quoted(cat)
        << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.at
        << ",\"pid\":0,\"tid\":" << e.actor << ",\"args\":{" << args << "}}";
  }
  out << "],\"otherData\":{\"recorded\":" << dump.recorded
      << ",\"dropped\":" << dump.dropped << "}}\n";
}

}  // namespace rqs::obs
