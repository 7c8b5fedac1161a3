#include "pfs/ldiskfs.h"

#include <algorithm>
#include <stdexcept>

namespace faultyrank {

LdiskfsImage::LdiskfsImage(std::string label, std::uint32_t inodes_per_group)
    : label_(std::move(label)), inodes_per_group_(inodes_per_group) {
  if (inodes_per_group_ == 0) {
    throw std::invalid_argument("ldiskfs: inodes_per_group must be > 0");
  }
}

Inode& LdiskfsImage::allocate(InodeType type) {
  std::uint64_t ino;
  if (!free_list_.empty()) {
    // First-fit: lowest free ino first, like ext4's bitmap walk.
    const auto lowest = std::min_element(free_list_.begin(), free_list_.end());
    ino = *lowest;
    *lowest = free_list_.back();
    free_list_.pop_back();
  } else {
    slots_.emplace_back();
    ino = slots_.size();  // ino is 1-based
  }
  Inode& inode = slots_[ino - 1];
  inode = Inode{};
  inode.ino = ino;
  inode.type = type;
  inode.in_use = true;
  ++in_use_count_;
  return inode;
}

void LdiskfsImage::release(std::uint64_t ino) {
  Inode* inode = find(ino);
  if (inode == nullptr) {
    throw std::invalid_argument("ldiskfs: release of free or invalid inode");
  }
  oi_.erase(inode->lma_fid);
  inode->in_use = false;
  --in_use_count_;
  free_list_.push_back(ino);
}

Inode* LdiskfsImage::find(std::uint64_t ino) {
  if (ino == 0 || ino > slots_.size()) return nullptr;
  Inode& inode = slots_[ino - 1];
  return inode.in_use ? &inode : nullptr;
}

const Inode* LdiskfsImage::find(std::uint64_t ino) const {
  if (ino == 0 || ino > slots_.size()) return nullptr;
  const Inode& inode = slots_[ino - 1];
  return inode.in_use ? &inode : nullptr;
}

Inode* LdiskfsImage::find_by_fid(const Fid& fid) {
  const auto it = oi_.find(fid);
  return it == oi_.end() ? nullptr : find(it->second);
}

const Inode* LdiskfsImage::find_by_fid(const Fid& fid) const {
  const auto it = oi_.find(fid);
  return it == oi_.end() ? nullptr
                         : const_cast<LdiskfsImage*>(this)->find(it->second);
}

void LdiskfsImage::oi_insert(const Fid& fid, std::uint64_t ino) {
  oi_[fid] = ino;
}

void LdiskfsImage::oi_erase(const Fid& fid) { oi_.erase(fid); }

Inode* LdiskfsImage::find_by_fid_raw(const Fid& fid) {
  for (auto& inode : slots_) {
    if (inode.in_use && inode.lma_fid == fid) return &inode;
  }
  return nullptr;
}

const Inode* LdiskfsImage::find_by_fid_raw(const Fid& fid) const {
  for (const auto& inode : slots_) {
    if (inode.in_use && inode.lma_fid == fid) return &inode;
  }
  return nullptr;
}

void LdiskfsImage::for_each_inode(
    const std::function<void(const Inode&)>& visit) const {
  for (const auto& inode : slots_) {
    if (inode.in_use) visit(inode);
  }
}

}  // namespace faultyrank

namespace {

void put_fid(faultyrank::ByteWriter& w, const faultyrank::Fid& fid) {
  w.put(fid.seq);
  w.put(fid.oid);
  w.put(fid.ver);
}

faultyrank::Fid get_fid(faultyrank::ByteReader& r) {
  faultyrank::Fid fid;
  fid.seq = r.get<std::uint64_t>();
  fid.oid = r.get<std::uint32_t>();
  fid.ver = r.get<std::uint32_t>();
  return fid;
}

}  // namespace

namespace faultyrank {

void LdiskfsImage::serialize(ByteWriter& w) const {
  w.put_string(label_);
  w.put(inodes_per_group_);
  w.put(static_cast<std::uint64_t>(slots_.size()));
  for (const Inode& inode : slots_) {
    w.put(inode.ino);
    w.put(static_cast<std::uint8_t>(inode.type));
    w.put(static_cast<std::uint8_t>(inode.in_use ? 1 : 0));
    put_fid(w, inode.lma_fid);
    w.put(static_cast<std::uint32_t>(inode.link_ea.size()));
    for (const LinkEaEntry& link : inode.link_ea) {
      put_fid(w, link.parent);
      w.put_string(link.name);
    }
    w.put(static_cast<std::uint8_t>(inode.lov_ea.has_value() ? 1 : 0));
    if (inode.lov_ea.has_value()) {
      w.put(inode.lov_ea->stripe_size);
      w.put(inode.lov_ea->stripe_count);
      w.put(static_cast<std::uint32_t>(inode.lov_ea->stripes.size()));
      for (const LovEaEntry& slot : inode.lov_ea->stripes) {
        put_fid(w, slot.stripe);
        w.put(slot.ost_index);
      }
    }
    w.put(static_cast<std::uint8_t>(inode.filter_fid.has_value() ? 1 : 0));
    if (inode.filter_fid.has_value()) {
      put_fid(w, inode.filter_fid->parent);
      w.put(inode.filter_fid->stripe_index);
    }
    w.put(static_cast<std::uint32_t>(inode.dirents.size()));
    for (const DirentEntry& entry : inode.dirents) {
      w.put_string(entry.name);
      put_fid(w, entry.fid);
      w.put(entry.ino);
    }
    w.put(inode.size_bytes);
    w.put(inode.mtime);
    w.put(inode.uid);
    w.put(inode.gid);
  }
  w.put(static_cast<std::uint64_t>(free_list_.size()));
  for (const std::uint64_t ino : free_list_) w.put(ino);
  w.put(in_use_count_);
  w.put(static_cast<std::uint64_t>(oi_.size()));
  // The OI table lives in hash order (seed/address dependent); images
  // must be byte-identical across runs, so serialize in Fid order.
  std::vector<std::pair<Fid, std::uint64_t>> oi_sorted(oi_.begin(), oi_.end());
  std::sort(oi_sorted.begin(), oi_sorted.end());
  for (const auto& [fid, ino] : oi_sorted) {
    put_fid(w, fid);
    w.put(ino);
  }
}

LdiskfsImage LdiskfsImage::deserialize(ByteReader& r) {
  const std::string label = r.get_string();
  const auto inodes_per_group = r.get<std::uint32_t>();
  LdiskfsImage image(label, inodes_per_group);
  // Every count is validated against the bytes remaining before the
  // resize, so a bit-flipped length field throws instead of driving a
  // multi-gigabyte allocation (the lower bounds are the fixed-width
  // portion of one encoded element).
  const auto slot_count = r.bounded_count(r.get<std::uint64_t>(), 60);
  image.slots_.resize(slot_count);
  std::uint64_t slot_index = 0;
  std::uint64_t in_use_slots = 0;
  for (Inode& inode : image.slots_) {
    inode.ino = r.get<std::uint64_t>();
    const auto type = r.get<std::uint8_t>();
    inode.type = static_cast<InodeType>(type);
    inode.in_use = r.get<std::uint8_t>() != 0;
    // inos are positional (slot = ino - 1); every consumer from the
    // checker's bootstrap down indexes tables with them, so an image
    // whose recorded ino disagrees with its slot is corrupt, not
    // merely inconsistent. Likewise a type no inode can have. A free
    // slot's bytes are never read, so only in-use slots are checked.
    if (inode.in_use && inode.ino != slot_index + 1) {
      throw SerdesError("inode ino " + std::to_string(inode.ino) +
                        " does not match slot " +
                        std::to_string(slot_index));
    }
    if (inode.in_use &&
        type > static_cast<std::uint8_t>(InodeType::kOstObject)) {
      throw SerdesError("inode in slot " + std::to_string(slot_index) +
                        " has impossible type byte " + std::to_string(type));
    }
    ++slot_index;
    if (inode.in_use) ++in_use_slots;
    inode.lma_fid = get_fid(r);
    const auto link_count = r.bounded_count(r.get<std::uint32_t>(), 20);
    inode.link_ea.resize(link_count);
    for (LinkEaEntry& link : inode.link_ea) {
      link.parent = get_fid(r);
      link.name = r.get_string();
    }
    if (r.get<std::uint8_t>() != 0) {
      LovEa lov;
      lov.stripe_size = r.get<std::uint32_t>();
      lov.stripe_count = r.get<std::int32_t>();
      const auto stripe_count = r.bounded_count(r.get<std::uint32_t>(), 20);
      lov.stripes.resize(stripe_count);
      for (LovEaEntry& slot : lov.stripes) {
        slot.stripe = get_fid(r);
        slot.ost_index = r.get<std::uint32_t>();
      }
      inode.lov_ea = std::move(lov);
    }
    if (r.get<std::uint8_t>() != 0) {
      FilterFid filter;
      filter.parent = get_fid(r);
      filter.stripe_index = r.get<std::uint32_t>();
      inode.filter_fid = filter;
    }
    const auto dirent_count = r.bounded_count(r.get<std::uint32_t>(), 28);
    inode.dirents.resize(dirent_count);
    for (DirentEntry& entry : inode.dirents) {
      entry.name = r.get_string();
      entry.fid = get_fid(r);
      entry.ino = r.get<std::uint64_t>();
    }
    inode.size_bytes = r.get<std::uint64_t>();
    inode.mtime = r.get<std::uint64_t>();
    inode.uid = r.get<std::uint32_t>();
    inode.gid = r.get<std::uint32_t>();
  }
  const auto free_count = r.bounded_count(r.get<std::uint64_t>(), 8);
  image.free_list_.resize(free_count);
  for (std::uint64_t& ino : image.free_list_) ino = r.get<std::uint64_t>();
  // The cluster's inode totals read this count (repair keys its LMA
  // index on them, namespace generation its name salt), so a count the
  // in-use slots disagree with is corruption, like a bad ino or type.
  image.in_use_count_ = r.get<std::uint64_t>();
  if (image.in_use_count_ != in_use_slots) {
    throw SerdesError("in-use count " + std::to_string(image.in_use_count_) +
                      " does not match the " + std::to_string(in_use_slots) +
                      " in-use slots");
  }
  const auto oi_count = r.bounded_count(r.get<std::uint64_t>(), 24);
  image.oi_.reserve(oi_count);
  for (std::uint64_t i = 0; i < oi_count; ++i) {
    const Fid fid = get_fid(r);
    const auto ino = r.get<std::uint64_t>();
    image.oi_.emplace(fid, ino);
  }
  return image;
}

}  // namespace faultyrank
