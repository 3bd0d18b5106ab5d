package dmtcp

// NumShards returns how many payload shards the image carries.
func (ix *ShardIndex) NumShards() int { return len(ix.shards) }

// ShardsDecoded counts the shards actually decoded so far — with the
// single-flight cache, at most one decode per (image, shard) no matter
// how faults and the prefetcher race.
func (r *LazyRestorer) ShardsDecoded() int64 { return r.decoded.Load() }
