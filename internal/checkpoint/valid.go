package checkpoint

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// validJSON reports whether b is one JSON value with optional
// whitespace around it, exactly as json.Valid does, and the deepest
// nesting of arrays and objects in it (0 for a scalar). Like
// encoding/json it refuses a value nested more than maxDepth deep, and
// like it, it does not require strings to be valid UTF-8.
// FuzzValidJSON holds it to json.Valid.
//
//loopvet:hot
func validJSON(b []byte) (depth int, ok bool) {
	var objects [maxDepth/64 + 1]uint64 // bit d is set when the container d+1 deep is an object
	n, i := 0, 0                        // open containers; next byte
	object := false                     // the innermost open container is an object
	for {
		// An element starts at b[i]: in an object, a member's name and
		// colon, then a value, each after optional whitespace.
		if object {
			if i = skipSpace(b, i); i == len(b) || b[i] != '"' {
				return 0, false
			}
			if i = endString(b, i+1); i < 0 {
				return 0, false
			}
			if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
				return 0, false
			}
			i++
		}
		if i = skipSpace(b, i); i == len(b) {
			return 0, false
		}
		switch c := b[i]; c {
		case '{', '[':
			if n == maxDepth {
				return 0, false
			}
			object = c == '{'
			if object {
				objects[uint(n)/64] |= 1 << (uint(n) % 64)
			} else {
				objects[uint(n)/64] &^= 1 << (uint(n) % 64)
			}
			n++
			depth = max(depth, n)
			if i = skipSpace(b, i+1); i == len(b) || b[i] != c+2 { // '}' is '{'+2, ']' is '['+2
				continue // the first element
			}
			i++ // an empty container is a whole value
			n--
			object = n > 0 && objects[uint(n-1)/64]&(1<<(uint(n-1)%64)) != 0
		case '"':
			i = endString(b, i+1)
		case 't':
			i = endLiteral(b, i, "true")
		case 'f':
			i = endLiteral(b, i, "false")
		case 'n':
			i = endLiteral(b, i, "null")
		default:
			i = endNumber(b, i)
		}
		if i < 0 {
			return 0, false
		}
		// A value ends before b[i]: close containers until the next
		// element starts.
		for {
			i = skipSpace(b, i)
			if n == 0 {
				return depth, i == len(b)
			}
			if i == len(b) {
				return 0, false
			}
			if c := b[i]; c == ',' {
				i++
				break
			} else if c != '}' && c != ']' || (c == '}') != object {
				return 0, false
			}
			i++
			n--
			object = n > 0 && objects[uint(n-1)/64]&(1<<(uint(n-1)%64)) != 0
		}
	}
}

// skipSpace returns the index of the first byte at or after i in b that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && isSpace(b[i]) {
		i++
	}
	return i
}

// inString marks the bytes a string holds as they are: all but the
// quote, the backslash and the control bytes.
var inString = func() (t [256]bool) {
	for c := ' '; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// endString reads the rest of a string whose opening quote is just
// before b[i] and returns the index past its closing quote, or -1.
func endString(b []byte, i int) int {
	for {
		for i < len(b) && inString[b[i]] {
			i++
		}
		switch {
		case i == len(b):
			return -1
		case b[i] == '"':
			return i + 1
		case b[i] != '\\' || i+1 == len(b):
			return -1 // a control byte, or a backslash ending the input
		}
		switch b[i+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i += 2
		case 'u':
			if len(b)-i < 6 || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) || !isHex(b[i+5]) {
				return -1
			}
			i += 6
		default:
			return -1
		}
	}
}

// isHex reports whether c is a hexadecimal digit.
func isHex(c byte) bool { return c-'0' <= 9 || (c|0x20)-'a' <= 5 }

// endLiteral reads the literal lit at b[i] and returns the index past
// it, or -1.
func endLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// endNumber reads a number at b[i] and returns the index past it, or
// -1: a minus sign, an integer part with no leading zero, then an
// optional fraction and an optional exponent, each with at least one
// digit.
func endNumber(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case b[i]-'1' <= 8:
		i = endDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i]-'0' > 9 {
			return -1
		}
		i = endDigits(b, i+1)
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i]-'0' > 9 {
			return -1
		}
		i = endDigits(b, i+1)
	}
	return i
}

// endDigits returns the index of the first byte at or after i in b that
// is not a decimal digit.
func endDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}
