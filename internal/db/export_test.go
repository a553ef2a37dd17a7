package db

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/mem"
)

// ColumnMask evaluates a single column's predicate for all tuples —
// the oracle for column-at-a-time intermediate bitmasks.
// col selects FieldShipDate, FieldDiscount or FieldQuantity.
func ColumnMask(t *Table, q Q06, col int) []byte {
	mask := make([]byte, (t.N+7)/8)
	for i := 0; i < t.N; i++ {
		var ok bool
		switch col {
		case FieldShipDate:
			ok = t.ShipDate[i] >= q.ShipLo && t.ShipDate[i] < q.ShipHi
		case FieldDiscount:
			ok = t.Discount[i] >= q.DiscLo && t.Discount[i] <= q.DiscHi
		case FieldQuantity:
			ok = t.Quantity[i] < q.QtyHi
		default:
			panic(fmt.Sprintf("db: column %d has no predicate", col))
		}
		if ok {
			mask[i/8] |= 1 << (i % 8)
		}
	}
	return mask
}

// FieldAddr returns the address of a field of tuple i.
func (l NSMLayout) FieldAddr(i, field int) mem.Addr {
	return l.TupleAddr(i) + mem.Addr(field*4)
}

// ValueAddr returns the address of tuple i's value in column col.
func (l DSMLayout) ValueAddr(col, i int) mem.Addr {
	return l.ColBase[col] + mem.Addr(i*ColumnWidth)
}
