package kvs

// Del removes key.
func (s *Store) Del(key []byte) error {
	return s.apply(record{op: opDel, key: key}, true)
}
