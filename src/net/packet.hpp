// Packets and protocol headers.
//
// A Packet is a MAC frame: link-layer source/destination plus one typed
// header object (which includes any payload size accounting). Headers are
// immutable and shared: broadcasting to twenty neighbours enqueues twenty
// Packet values pointing at one header allocation.
//
// Sizes are byte-accurate because control overhead *is* the experiment:
// the paper attributes ECGRID's lifetime gap to GAF entirely to HELLO
// traffic, so HELLO/RREQ/RREP/RETIRE bytes must cost realistic airtime
// and therefore realistic transmit/receive energy.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace ecgrid::net {

/// Host identifier (the paper's unique host ID — an IP or MAC address;
/// also the host's RAS paging sequence).
using NodeId = std::int32_t;

/// Link-layer broadcast address.
inline constexpr NodeId kBroadcastId = -1;

[[nodiscard]] inline constexpr bool isBroadcast(NodeId id) {
  return id == kBroadcastId;
}

/// 802.11-style MAC framing overhead added to every header's bytes().
inline constexpr int kMacOverheadBytes = 34;

/// Base class for all protocol headers. Concrete headers live with the
/// protocol that owns them (protocols/common, core, protocols/gaf) and are
/// declared `class H final : public HeaderOf<H>`, which stamps every
/// object with its class's tag so a typed view costs a pointer compare. A
/// class deriving from Header directly carries no tag: no typed view
/// matches it.
class Header {
 public:
  virtual ~Header() = default;

  /// Wire size of this header plus any payload it carries, in bytes,
  /// excluding MAC framing.
  [[nodiscard]] virtual int bytes() const = 0;

  /// Short name for trace records ("HELLO", "RREQ", ...).
  [[nodiscard]] virtual const char* name() const = 0;

  /// The concrete class's tag: the address of HeaderOf<H>::kTag, or
  /// nullptr for an untagged class.
  [[nodiscard]] const void* tag() const { return tag_; }

 protected:
  Header() = default;

 private:
  template <typename H>
  friend class HeaderOf;
  explicit Header(const void* tag) : tag_(tag) {}

  const void* tag_ = nullptr;
};

/// The base of concrete header class H: one tag per class, no central
/// registry — the tag is the address of a byte each class owns.
template <typename H>
class HeaderOf : public Header {
 public:
  static constexpr char kTag = 0;

 protected:
  HeaderOf() : Header(&kTag) {}
};

/// Typed view of `header`; nullptr when it is null or of another class.
/// Exact-class match, hence the finality requirement: no subclass of H
/// can carry H's tag.
template <typename H>
[[nodiscard]] const H* headerAs(const Header* header) {
  static_assert(std::is_final_v<H>, "headerAs needs a final header class");
  static_assert(std::is_base_of_v<HeaderOf<H>, H>,
                "header classes derive from HeaderOf<Self>");
  return header != nullptr && header->tag() == &HeaderOf<H>::kTag
             ? static_cast<const H*>(header)
             : nullptr;
}

struct Packet {
  NodeId macSrc = kBroadcastId;
  NodeId macDst = kBroadcastId;
  std::shared_ptr<const Header> header;

  /// Unique id assigned by the channel on first transmission; copies made
  /// for each receiver share it, so traces can correlate deliveries.
  std::uint64_t uid = 0;

  /// Sender-local MAC sequence number. Stable across ARQ retransmissions
  /// of the same frame; receivers use (macSrc, macSeq) to acknowledge and
  /// to suppress duplicate deliveries.
  std::uint64_t macSeq = 0;

  /// How many times the routing layer has re-routed this frame after a
  /// link-layer delivery failure; bounds repair loops.
  int routeRetries = 0;

  [[nodiscard]] int bytes() const { return kMacOverheadBytes + header->bytes(); }

  /// Typed view of the header; nullptr when it is some other type.
  template <typename H>
  const H* headerAs() const {
    return net::headerAs<H>(header.get());
  }
};

}  // namespace ecgrid::net
