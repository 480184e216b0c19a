// Package wire defines the binary wire format of every protocol message
// the system exchanges: rekey messages and their encryptions, user
// records, forward headers for T-mesh multicast, and the queries of the
// ID assignment protocol.
//
// The paper measures bandwidth in encryptions; this package grounds that
// unit in bytes. An encryption on the wire is its two node IDs, a key
// version, and the AES-GCM-wrapped key (60 bytes of ciphertext for a
// 32-byte key), so "several thousand encryptions" is a few hundred
// kilobytes per rekey interval — the burst the splitting scheme removes
// from user access links.
//
// Encoding rules: big-endian fixed-width integers, length-prefixed
// variable fields (1-byte length for IDs, which hold at most 255
// digits), and a 1-byte message-type tag on framed messages. Decoders
// never trust lengths: every read is bounds-checked and a decoding error
// names the offending field.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

// MsgType tags a framed message.
type MsgType byte

const (
	// TypeRekey frames a batch rekey message (possibly split).
	TypeRekey MsgType = iota + 1
	// TypeData frames an application payload multicast with T-mesh.
	TypeData
	// TypeQuery frames an ID-assignment collection query.
	TypeQuery
	// TypeQueryReply frames the records answering a query.
	TypeQueryReply
)

// ErrTruncated is returned when a buffer ends before a field does.
var ErrTruncated = errors.New("wire: truncated message")

// Minimum encoded sizes, used to reject hostile count fields before
// any count-sized allocation. An encryption is two prefixes (1-byte
// length each, possibly empty), an 8-byte version, and a 2-byte
// ciphertext length; a record is an 8-byte host, a 1-byte ID length,
// and an 8-byte join time.
const (
	encryptionMinSize = 1 + 1 + 8 + 2
	recordMinSize     = 8 + 1 + 8
)

// reader is a bounds-checked cursor over a received buffer.
type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int, field string) ([]byte, error) {
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("%w: reading %s needs %d bytes, %d left", ErrTruncated, field, n, len(r.buf)-r.off)
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) u8(field string) (byte, error) {
	b, err := r.need(1, field)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16(field string) (uint16, error) {
	b, err := r.need(2, field)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) u32(field string) (uint32, error) {
	b, err := r.need(4, field)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) u64(field string) (uint64, error) {
	b, err := r.need(8, field)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *reader) rest() int { return len(r.buf) - r.off }

// --- Prefixes and IDs ---

// AppendPrefix encodes a prefix as 1-byte digit count + digit bytes.
func AppendPrefix(dst []byte, p ident.Prefix) []byte {
	dst = append(dst, byte(p.Len()))
	return p.AppendDigits(dst)
}

func readPrefix(r *reader, field string) (ident.Prefix, error) {
	n, err := r.u8(field + ".len")
	if err != nil {
		return ident.Prefix{}, err
	}
	b, err := r.need(int(n), field)
	if err != nil {
		return ident.Prefix{}, err
	}
	p, err := ident.PrefixFromDigits(b)
	if err != nil {
		return ident.Prefix{}, fmt.Errorf("wire: %s: %v", field, err)
	}
	return p, nil
}

// AppendID encodes a full user ID the same way as a prefix.
func AppendID(dst []byte, id ident.ID) []byte {
	return AppendPrefix(dst, id.AsPrefix())
}

func readID(r *reader, params ident.Params, field string) (ident.ID, error) {
	p, err := readPrefix(r, field)
	if err != nil {
		return ident.ID{}, err
	}
	id, err := p.FullID(params)
	if err != nil {
		return ident.ID{}, fmt.Errorf("wire: %s: %v", field, err)
	}
	return id, nil
}

// --- Encryptions ---

// AppendEncryption encodes one {k'}_k unit.
func AppendEncryption(dst []byte, e keycrypt.Encryption) []byte {
	dst = AppendPrefix(dst, e.ID)
	dst = AppendPrefix(dst, e.KeyID)
	dst = binary.BigEndian.AppendUint64(dst, e.KeyVersion)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Ciphertext)))
	return append(dst, e.Ciphertext...)
}

// EncryptionSize returns the exact encoded size of an encryption.
func EncryptionSize(e keycrypt.Encryption) int {
	return 1 + e.ID.Len() + 1 + e.KeyID.Len() + 8 + 2 + len(e.Ciphertext)
}

func readEncryption(r *reader) (keycrypt.Encryption, error) {
	var e keycrypt.Encryption
	var err error
	if e.ID, err = readPrefix(r, "encryption.id"); err != nil {
		return e, err
	}
	if e.KeyID, err = readPrefix(r, "encryption.keyID"); err != nil {
		return e, err
	}
	if e.KeyVersion, err = r.u64("encryption.version"); err != nil {
		return e, err
	}
	n, err := r.u16("encryption.ctLen")
	if err != nil {
		return e, err
	}
	ct, err := r.need(int(n), "encryption.ciphertext")
	if err != nil {
		return e, err
	}
	if n > 0 {
		e.Ciphertext = append([]byte(nil), ct...)
	}
	return e, nil
}

// --- Rekey messages ---

// MarshalRekey frames a (possibly split) rekey message for one T-mesh
// hop: type tag, forward level, interval, encryption count, encryptions.
func MarshalRekey(msg *keytree.Message, forwardLevel int) ([]byte, error) {
	if msg == nil {
		return nil, errors.New("wire: nil rekey message")
	}
	if forwardLevel < 0 || forwardLevel > 255 {
		return nil, fmt.Errorf("wire: forward level %d out of range", forwardLevel)
	}
	if len(msg.Encryptions) > 1<<32-1 {
		return nil, errors.New("wire: too many encryptions")
	}
	size := 1 + 1 + 8 + 4
	for _, e := range msg.Encryptions {
		size += EncryptionSize(e)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, byte(TypeRekey), byte(forwardLevel))
	dst = binary.BigEndian.AppendUint64(dst, msg.Interval)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg.Encryptions)))
	for _, e := range msg.Encryptions {
		dst = AppendEncryption(dst, e)
	}
	return dst, nil
}

// UnmarshalRekey decodes a framed rekey message and its forward level.
func UnmarshalRekey(buf []byte) (*keytree.Message, int, error) {
	r := &reader{buf: buf}
	tag, err := r.u8("type")
	if err != nil {
		return nil, 0, err
	}
	if MsgType(tag) != TypeRekey {
		return nil, 0, fmt.Errorf("wire: expected rekey tag, got %d", tag)
	}
	level, err := r.u8("forwardLevel")
	if err != nil {
		return nil, 0, err
	}
	interval, err := r.u64("interval")
	if err != nil {
		return nil, 0, err
	}
	count, err := r.u32("count")
	if err != nil {
		return nil, 0, err
	}
	// An encryption is at least encryptionMinSize bytes; a count the
	// remaining buffer cannot possibly hold is rejected here, before
	// any allocation sized by it. The arithmetic runs in int64 so a
	// hostile 32-bit count cannot overflow the comparison: a 4-byte
	// frame claiming 2^31 encryptions dies on this line.
	if int64(count)*encryptionMinSize > int64(r.rest()) {
		return nil, 0, fmt.Errorf("%w: %d encryptions in %d bytes", ErrTruncated, count, r.rest())
	}
	msg := &keytree.Message{Interval: interval, Encryptions: make([]keycrypt.Encryption, 0, count)}
	for i := uint32(0); i < count; i++ {
		e, err := readEncryption(r)
		if err != nil {
			return nil, 0, fmt.Errorf("wire: encryption %d: %w", i, err)
		}
		msg.Encryptions = append(msg.Encryptions, e)
	}
	if r.rest() != 0 {
		return nil, 0, fmt.Errorf("wire: %d trailing bytes after rekey message", r.rest())
	}
	return msg, int(level), nil
}

// --- User records ---

// MarshalRecord encodes a neighbor-table user record: host, ID, join
// time (the fields Section 2.2 and Appendix B require).
func MarshalRecord(rec overlay.Record) []byte {
	dst := make([]byte, 0, 8+1+rec.ID.Len()+8)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.Host))
	dst = AppendID(dst, rec.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.JoinTime))
	return dst
}

func readRecord(r *reader, params ident.Params) (overlay.Record, error) {
	var rec overlay.Record
	host, err := r.u64("record.host")
	if err != nil {
		return rec, err
	}
	rec.Host = vnet.HostID(host)
	if rec.ID, err = readID(r, params, "record.id"); err != nil {
		return rec, err
	}
	jt, err := r.u64("record.joinTime")
	if err != nil {
		return rec, err
	}
	rec.JoinTime = time.Duration(jt)
	return rec, nil
}

// UnmarshalRecord decodes a single user record.
func UnmarshalRecord(buf []byte, params ident.Params) (overlay.Record, error) {
	r := &reader{buf: buf}
	rec, err := readRecord(r, params)
	if err != nil {
		return rec, err
	}
	if r.rest() != 0 {
		return rec, fmt.Errorf("wire: %d trailing bytes after record", r.rest())
	}
	return rec, nil
}

// --- ID-assignment queries ---

// Query is the collection query of Section 3.1.1: "the query specifies
// a target ID prefix".
type Query struct {
	Target ident.Prefix
}

// MarshalQuery frames a collection query.
func MarshalQuery(q Query) []byte {
	dst := make([]byte, 0, 2+q.Target.Len())
	dst = append(dst, byte(TypeQuery))
	return AppendPrefix(dst, q.Target)
}

// UnmarshalQuery decodes a collection query.
func UnmarshalQuery(buf []byte) (Query, error) {
	r := &reader{buf: buf}
	tag, err := r.u8("type")
	if err != nil {
		return Query{}, err
	}
	if MsgType(tag) != TypeQuery {
		return Query{}, fmt.Errorf("wire: expected query tag, got %d", tag)
	}
	target, err := readPrefix(r, "query.target")
	if err != nil {
		return Query{}, err
	}
	if r.rest() != 0 {
		return Query{}, fmt.Errorf("wire: %d trailing bytes after query", r.rest())
	}
	return Query{Target: target}, nil
}

// MarshalQueryReply frames the records matching a query.
func MarshalQueryReply(recs []overlay.Record) ([]byte, error) {
	if len(recs) > 1<<16-1 {
		return nil, errors.New("wire: too many records in reply")
	}
	dst := []byte{byte(TypeQueryReply)}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(recs)))
	for _, rec := range recs {
		dst = append(dst, MarshalRecord(rec)...)
	}
	return dst, nil
}

// UnmarshalQueryReply decodes a query reply.
func UnmarshalQueryReply(buf []byte, params ident.Params) ([]overlay.Record, error) {
	r := &reader{buf: buf}
	tag, err := r.u8("type")
	if err != nil {
		return nil, err
	}
	if MsgType(tag) != TypeQueryReply {
		return nil, fmt.Errorf("wire: expected query-reply tag, got %d", tag)
	}
	count, err := r.u16("reply.count")
	if err != nil {
		return nil, err
	}
	// A record is at least recordMinSize bytes; reject impossible
	// counts (int64 math, overflow-proof) before allocating the slice.
	if int64(count)*recordMinSize > int64(r.rest()) {
		return nil, fmt.Errorf("%w: %d records in %d bytes", ErrTruncated, count, r.rest())
	}
	out := make([]overlay.Record, 0, count)
	for i := 0; i < int(count); i++ {
		rec, err := readRecord(r, params)
		if err != nil {
			return nil, fmt.Errorf("wire: record %d: %w", i, err)
		}
		out = append(out, rec)
	}
	if r.rest() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after reply", r.rest())
	}
	return out, nil
}
